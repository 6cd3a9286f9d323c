"""The infinite-ring limit: mode-mean free energy, theta_c(mu), bifurcation.

The mode sum of the finite ring becomes an integral over the band angle s.
Every integrand here is a smooth pi-periodic function of s, so each
integral is a mean over a period, computed by the mode mean
(``numerics.mode_mean``): the finite ring's own trapezoid rule with the
mode count N doubling to convergence. Its error falls like e^(-2 eta N),
eta being the distance of the integrand's nearest complex singularity from
the real axis, and each integrand here hands it that eta. For x = W/theta
past ~100 the tanh layer at the band center is so sharp that the mode mean
maps its nodes towards it.

The integrands are functions of t = s - pi/2, where |cos s| = |sin t| keeps
its full relative precision at the band center. The critical temperature
solves the finite case's two-equation system by the same routine
(``finite_chain._critical_point``): it inverts the strictly increasing
J(x), the equations' difference, in ln x from x ~ e^(pi mu/4). Around
theta_c the dimerization amplitude bifurcates like sqrt(theta_c - theta),
with a coefficient assembled from three h'' moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .finite_chain import (CriticalPoint, DimerState, ModelParams,
                           _critical_point, _dimer_band, _minimize_dimer)
from .kernels import _h_prime_arr, _h_second_arr
from .numerics import Tolerance, mode_mean

__all__ = [
    "BifurcationData",
    "AsymptoticConstants",
    "g_thermo",
    "minimize_dimer_thermo",
    "J_thermo",
    "theta_critical_thermo",
    "asymptotic_constants",
    "bifurcation_data",
    "phase_diagram",
]

_HALF_PI = math.pi / 2
# accuracy of all integrals in this module; max_iter caps the mode-mean
# nodes, and leaves room for the start N0 = 4096 and its doubling that the
# mapped nodes need near mu = _MU_MAX
_QUAD_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=8192)
# largest stiffness theta_critical_thermo accepts: the tests validate it up
# to here (x = W/theta_c ~ 3e68), and from mu ~ 205 on the mapped nodes
# would start at N0 = 8192, whose doubling passes the cap
_MU_MAX = 200.0


def _tanh_eta(x: float) -> float:
    # tanh(x cos s) and h''(x^2 cos^2 s) have their singularities nearest
    # the real axis at s = pi/2 +- i asinh(pi / (2x))
    return math.asinh(_HALF_PI / x)


def g_thermo(s: DimerState, p: ModelParams, tol: Tolerance | None = None) -> float:
    """Energy per atom of the infinite ring at theta > 0."""
    if p.theta <= 0:
        raise ValueError("g_thermo needs theta > 0")
    return _g_thermo_raw(s.W, s.delta, p.mu, p.theta, tol or _QUAD_TOL)


def _g_thermo_raw(W, delta, mu, theta, tol):
    # h_theta's singularities sit where the squared level reaches
    # -(pi theta)^2; with M = max(W, delta) and m = min(W, delta) that is
    # eta = asinh(sqrt((m^2 + (pi theta/2)^2) / (M^2 - m^2))), and at M = m
    # the integrand is constant
    big, small = max(W, delta), min(W, delta)
    spread = big * big - small * small
    eta = (math.asinh(math.sqrt((small * small + (_HALF_PI * theta) ** 2) / spread))
           if spread > 0.0 else math.inf)
    band = mode_mean(_dimer_band(W, delta, theta), eta, tol)
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - band


def minimize_dimer_thermo(p: ModelParams, init=None):
    """Minimize g_thermo over W, delta >= 0; delta < 1e-8 snaps to 0.

    ``init`` seeds the search (useful for continuation along a temperature
    sweep). Returns (DimerState, value).
    """
    if p.theta <= 0:
        raise ValueError("minimize_dimer_thermo needs theta > 0")
    g2 = lambda W, d: _g_thermo_raw(W, d, p.mu, p.theta, _QUAD_TOL)
    W, delta, val = _minimize_dimer(g2, 1.0 + 4.0 / (math.pi * p.mu), init)
    return DimerState(W=W, delta=delta), val


def J_thermo(x: float, tol: Tolerance | None = None) -> float:
    """-(4/pi) int_0^{pi/2} tanh(x cos s) cos(2s)/cos(s) ds.

    Strictly increasing from 0 to infinity; the apparent s = pi/2 blowup
    cancels against tanh and is evaluated through the series form. As a
    mean in t = s - pi/2, with tanh(x c)/c = x h'(x^2 c^2) and
    cos 2s = -cos 2t, this is 2 <x h'(x^2 sin^2 t) cos 2t>.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    return 2.0 * mode_mean(
        lambda t: x * _h_prime_arr((x * np.sin(t)) ** 2) * np.cos(2.0 * t),
        _tanh_eta(x), tol or _QUAD_TOL)


def theta_critical_thermo(mu: float) -> CriticalPoint:
    """Critical temperature of the infinite ring, for 0 < mu <= 200.

    x inverts J_thermo at mu from ln x = pi mu/4 (criterion 02's law; x is
    1.37 to 1.63 times e^(pi mu/4) for 0.5 <= mu <= 200), and the band
    means are mode means. theta_c follows from the cos^2 Euler-Lagrange
    equation, [mu + (4/pi) int tanh(x cos s) cos s ds] / (mu x), and the
    sin^2 equation is asserted to 1e-8 (finite_chain._critical_point).
    """
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    if mu > _MU_MAX:
        raise ValueError(
            f"theta_critical_thermo is validated up to mu = {_MU_MAX:g}, got {mu}")
    return _critical_point(mu, J_thermo, mu,
                           lambda f, x: mode_mean(f, _tanh_eta(x), _QUAD_TOL),
                           0.25 * math.pi * mu)


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
    """Second-order data of the transition at theta_c(mu).

    delta_prime = -(2 W* mu / theta_c^2) [(B - A) + mu theta_c^3 / (2 W*^3)]
    / det_J, where the bracket is -A by the identity
    B = -mu theta_c^3 / (2 W*^3), and is computed as -A; so delta_prime < 0
    rests on A < 0 and det_J > 0 alone, whatever the order of A and B.
    det J <= 0 or delta_prime >= 0 would contradict the structure of the
    problem and raise as an internal-consistency failure.
    """
    cp = theta_critical_thermo(mu)
    ratio = cp.W_star / cp.theta_c

    # the moments scale like x^-3, so they converge relative to that size
    mtol = replace(_QUAD_TOL, abs_tol=_QUAD_TOL.abs_tol / ratio ** 3)

    def moment(p):
        # (4/pi) int h''(x^2 cos^2 s) cos^(4-2p) s sin^(2p) s ds, in t; h''
        # transitions on the same cos s ~ 1/x layer as the tanh kernels
        def f(t):
            sn2, cs2 = np.sin(t) ** 2, np.cos(t) ** 2
            return _h_second_arr(ratio * ratio * sn2) * sn2 ** (2 - p) * cs2 ** p
        return 2.0 * mode_mean(f, _tanh_eta(ratio), mtol)

    A, B, C_int = moment(0), moment(1), moment(2)

    W, th = cp.W_star, cp.theta_c
    det_J = -mu / (W * W * th) * C_int + 2.0 * W / th ** 4 * (A * C_int - B * B)
    # the bracket (B - A) + mu th^3 / (2 W^3) is -A exactly; summed as it
    # stands it cancels to the moments' rounding once they are ~1e-13 (mu ~ 12)
    delta_prime = 2.0 * W * mu * A / (th ** 2 * det_J)
    return BifurcationData(A=A, B=B, C_int=C_int, det_J=det_J,
                           delta_prime=delta_prime,
                           coeff=math.sqrt(-delta_prime))


def phase_diagram(mu_grid):
    """theta_c over a stiffness grid, as (mu, theta_c) pairs.

    Per-point failures are recorded as NaN instead of aborting the sweep.
    Successful points are checked to be decreasing in mu.
    """
    rows = []
    for mu in mu_grid:
        try:
            rows.append((float(mu), theta_critical_thermo(float(mu)).theta_c))
        except (ValueError, RuntimeError):
            rows.append((float(mu), math.nan))
    good = [(m, t) for m, t in rows if not math.isnan(t)]
    for (m0, t0), (m1, t1) in zip(good, good[1:]):
        if m1 > m0 and not t1 < t0:
            raise RuntimeError(
                f"theta_c failed to decrease between mu={m0} and mu={m1}")
    return rows
