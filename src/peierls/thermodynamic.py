"""The infinite-ring limit: mode-mean free energy, theta_c(mu), bifurcation.

The mode sum of the finite ring becomes an integral over the band angle s.
Every integrand here is a smooth pi-periodic function of s, so each
integral is a mean over a period, computed by the mode mean
(``numerics.mode_mean``): the finite ring's own trapezoid rule with the
mode count N doubling to convergence. Its error falls like e^(-2 eta N),
eta being the distance of the integrand's nearest complex singularity from
the real axis, and each integrand here hands it that eta and _ABS_TOL.
For x = W/theta past ~5.7 the mode mean maps its nodes towards the tanh
layer at the band center, as that widens the strip.

The integrands are functions of sin t and cos t, t = s - pi/2, as
|cos s| = |sin t| keeps its full relative precision at the band center.
The band energy and the dimer search are the finite ring's routines,
given this ring's band mean (``_band_mean``), and so are theta_c's start
and last step; each Newton iterate of its root of J(x) = mu
is one band mean. From x = 1e4 (mu >= 11.1055) it comes in
closed form instead: there the gap equation is BCS's, and the large-x expansions
J(x) = (4/pi)(ln x + c2 - 1) + pi/(4x^2) and of the sin^2 mean,
(2/pi)(1 - pi^2/(24x^2)), are exact to rounding (their remainders are
O(x^-4)). Around theta_c the dimerization amplitude bifurcates like
sqrt(theta_c - theta), with a coefficient assembled from three h'' moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .finite_chain import (_MU_MAX, CriticalPoint, DimerState, ModelParams, _band_energy,
                           _check_mu, _critical_point, _minimize_dimer, _start_log_x)
from .kernels import _h_second, _sech2, _tanh_eta, _tanh_ratio
from .numerics import _newton_log, mode_mean

__all__ = [
    "BifurcationData",
    "AsymptoticConstants",
    "g_thermo",
    "minimize_dimer_thermo",
    "J_thermo",
    "theta_critical_thermo",
    "asymptotic_constants",
    "bifurcation_data",
]

# absolute accuracy of the integrals in this module (the mode mean adds a
# relative 1e-12, numerics._MEAN_REL_TOL); the h'' moments scale it by x^-3
_ABS_TOL = 1e-12
# from this x0 on, theta_critical_thermo takes the weak-coupling closed form
_X_WEAK = 1e4
# the infinite ring's band mean(f, eta): the L -> infinity limit of
# finite_chain._ring_mean, the mode mean at this module's accuracy
_band_mean = partial(mode_mean, abs_tol=_ABS_TOL)


def g_thermo(s: DimerState, p: ModelParams) -> float:
    """Energy per atom of the infinite ring at theta > 0."""
    if p.theta <= 0 or p.L is not None:
        raise ValueError(f"g_thermo needs theta > 0 and no L (g_finite takes one), got {p}")
    return _band_energy(s.W, s.delta, p.mu, p.theta, _band_mean)


def minimize_dimer_thermo(p: ModelParams):
    """Minimize g_thermo over W, delta >= 0: (DimerState, value), 1e-8 <= mu <= 200.

    It raises ConvergenceError below theta_c for mu < 1e-7, and below theta ~ 1e-150,
    where the 1-periodic root's mode mean needs more than its 16384-node cap.
    """
    if p.theta <= 0 or p.L is not None:
        raise ValueError("minimize_dimer_thermo needs theta > 0 and no L "
                         f"(minimize_dimer_finite takes one), got {p}")
    _check_mu(p.mu, _MU_MAX)
    return _minimize_dimer(p, _band_mean)


def J_thermo(x: float) -> float:
    """-(4/pi) int_0^{pi/2} tanh(x cos s) cos(2s)/cos(s) ds.

    Strictly increasing from 0 to infinity. As a mean in t = s - pi/2, with
    cos 2s = -cos 2t, this is 2 <tanh(x sin t)/sin t cos 2t>, with cos 2t as
    (cos t - sin t)(cos t + sin t); the ratio takes its limit x at the band
    centre sin t = 0, where the apparent s = pi/2 blowup cancels.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if x == 0:
        return 0.0
    return 2.0 * mode_mean(lambda s, c: _tanh_ratio(x, s) * ((c - s) * (c + s)),
                           _tanh_eta(x), _ABS_TOL)


def _critical_rows(x: float, sin_t, cos_t):
    # J_thermo's integrand, its x-derivative and the integrands of m_s, m_c
    ratio, cos_2t = _tanh_ratio(x, sin_t), (cos_t - sin_t) * (cos_t + sin_t)
    return np.stack((ratio * cos_2t, _sech2(x * sin_t) * cos_2t, ratio * sin_t ** 2,
                     ratio * cos_t ** 2))


def theta_critical_thermo(mu: float) -> CriticalPoint:
    """Critical temperature of the infinite ring; ValueError unless 1e-8 <= mu <= 200.

    Below the seam x0 = e^(pi mu/4) / C = 1e4, that is mu < 11.1055, x
    solves J(x) = mu by numerics._newton_log from _start_log_x(mu, inf); an
    iterate is one _band_mean of the rows of J_thermo, of its slope in ln x,
    x J' = 2x <sech^2(x |sin t|) cos 2t>, and of the Euler-Lagrange means,
    whose last values give theta_c = [mu + (4/pi) int tanh(x cos s) cos s ds] / (mu x).
    From the seam on, the large-x expansions of the module docstring give
    x = x0 e^(-pi^2/(16 x0^2)), W* = 1 + (4/(pi mu))(1 - pi^2/(24 x^2)) and
    theta_c = W*/x, with no mode mean. Their O(x^-4) remainders are below
    rounding there; what is left is the rounding of pi mu/4 in the
    exponent, about 1e-16 mu relative: theta_c is within 2.6e-15 of
    30-digit mpmath at mu = 30, 50, 100 and 200, and J_thermo(x) = mu to
    rounding from mu = 11.2 to 200.
    """
    _check_mu(mu, _MU_MAX)
    u = 0.25 * math.pi * mu
    # C apart from the exponent: u + 1 - c2 would round a number ~u twice more
    x0 = math.exp(u) / asymptotic_constants().C_prefactor
    if x0 < _X_WEAK:
        def step(u):  # J(x) - mu at x = e^u, its slope in u and (m_s, m_c)
            x = math.exp(u)
            J, dJ, m_s, m_c = _band_mean(partial(_critical_rows, x), _tanh_eta(x))
            return 2.0 * J - mu, 2.0 * x * dJ, (m_s, m_c)
        ln_x, means = _newton_log(step, _start_log_x(mu, math.inf))
        return _critical_point(mu, math.exp(ln_x), *means)
    x = x0 * math.exp(-math.pi ** 2 / (16.0 * x0 * x0))
    W = 1.0 + 4.0 / (math.pi * mu) * (1.0 - math.pi ** 2 / (24.0 * x * x))
    return CriticalPoint(x=x, W_star=W, theta_c=W / x)


@dataclass(frozen=True)
class AsymptoticConstants:
    """c1, c2 = c1 + ln 2 - 1, and the large-mu prefactor C = e^{c2 - 1}."""

    c1: float
    c2: float
    C_prefactor: float


def asymptotic_constants() -> AsymptoticConstants:
    """Constants of the large-stiffness law theta_c ~ C e^{-pi mu / 4}.

    c1 = int_0^1 tanh(u)/u du + int_1^inf (tanh(u) - 1)/u du has the closed
    form gamma + ln(4/pi), the constant of the BCS gap equation.
    """
    c1 = np.euler_gamma + math.log(4.0 / math.pi)
    c2 = c1 + math.log(2.0) - 1.0
    return AsymptoticConstants(c1=c1, c2=c2, C_prefactor=math.exp(c2 - 1.0))


@dataclass(frozen=True)
class BifurcationData:
    """h'' moments and derived slope of delta^2 at the critical point.

    A, B, C_int are the cos^4, sin^2 cos^2 and sin^4 moments of
    h''(W*^2 cos^2 s / theta_c^2); all negative by concavity, with
    B^2 <= A * C_int (Cauchy-Schwarz). Integrating B by parts gives
    B = -J(x) / (2 x^3), so at the critical point, where J(x) = mu and
    x = W*/theta_c, B = -mu theta_c^3 / (2 W*^3) exactly. The bracket
    (B - A) + mu theta_c^3 / (2 W*^3) in delta_prime is therefore -A, so
    delta_prime < 0 follows from A < 0 and det_J > 0. No order between A
    and B is claimed: B > A at mu = 1, B < A at mu = 2 and 4.
    coeff = sqrt(-delta_prime) is the amplitude in
    delta ~ coeff * sqrt(theta_c - theta).
    """

    A: float
    B: float
    C_int: float
    det_J: float
    delta_prime: float
    coeff: float

    def __post_init__(self):
        if not (self.A < 0 and self.B < 0 and self.C_int < 0):
            raise ValueError("the h'' moments must all be negative")
        if self.B * self.B > self.A * self.C_int:
            raise ValueError("Cauchy-Schwarz violated: B^2 > A*C_int")
        if self.det_J <= 0:
            raise ValueError(f"det_J must be positive, got {self.det_J}")
        if self.delta_prime >= 0:
            raise ValueError(f"d(delta^2)/d(theta) must be negative, got {self.delta_prime}")


def bifurcation_data(mu: float) -> BifurcationData:
    """Second-order data of the transition at theta_c(mu), 1e-8 <= mu <= 200.

    delta_prime = -(2 W* mu / theta_c^2) [(B - A) + mu theta_c^3 / (2 W*^3)]
    / det_J, where the bracket is -A by the identity
    B = -mu theta_c^3 / (2 W*^3), and is computed as -A; so delta_prime < 0
    rests on A < 0 and det_J > 0 alone, whatever the order of A and B.
    det J <= 0 or delta_prime >= 0 would contradict the structure of the
    problem and raise as an internal-consistency failure. The domain is
    theta_critical_thermo's, whose check rejects any other mu; at mu = 200
    the moments converge at numerics._MEAN_MAX_NODES.
    """
    cp = theta_critical_thermo(mu)
    ratio = cp.W_star / cp.theta_c

    def moments(sin_t, cos_t):
        # (4/pi) int h''(x^2 cos^2 s) cos^(4-2p) s sin^(2p) s ds for p = 0, 1,
        # 2, in t; h'' transitions on the same cos s ~ 1/x layer as the tanh
        # kernels
        sn2, cs2 = sin_t ** 2, cos_t ** 2
        hpp = _h_second(ratio * ratio * sn2)
        return np.stack((hpp * sn2 ** 2, hpp * sn2 * cs2, hpp * cs2 ** 2))

    # the moments scale like x^-3 at large x, so they converge relative to
    # that size; below x = 1 they tend to constants, and _ABS_TOL serves
    A, B, C_int = (2.0 * m for m in mode_mean(moments, _tanh_eta(ratio),
                                               _ABS_TOL / max(1.0, ratio) ** 3))

    W, th = cp.W_star, cp.theta_c
    det_J = -mu / (W * W * th) * C_int + 2.0 * W / th ** 4 * (A * C_int - B * B)
    # the bracket (B - A) + mu th^3 / (2 W^3) is -A exactly; summed as it
    # stands it cancels to the moments' rounding once they are ~1e-13 (mu ~ 12)
    delta_prime = 2.0 * W * mu * A / (th ** 2 * det_J)
    return BifurcationData(A=A, B=B, C_int=C_int, det_J=det_J,
                           delta_prime=delta_prime,
                           coeff=math.sqrt(-delta_prime))
