"""The infinite-ring limit: mode-mean free energy, theta_c(mu), bifurcation.

The mode sum of the finite ring becomes an integral over the band angle s.
Every integrand here is a smooth pi-periodic function of s, so each
integral is a mean over a period, computed by one of two rules:

- the mode mean (``numerics.mode_mean``), the finite ring's own trapezoid
  rule with the mode count N doubling to convergence. Its error falls like
  e^(-2 eta N), eta being the distance of the integrand's nearest complex
  singularity from the real axis, so it starts at the power of two
  N0 >= 15/eta (predicted error ~1e-13) and doubles once to verify;
- adaptive GK15 panels over a quarter period, split at the tanh layer,
  where N0 would pass _MODE_N0_MAX: for x = W/theta past ~430 the layer at
  the band center is so sharp that the scalar panels are cheaper.

Both rules work in t = s - pi/2, where |cos s| = |sin t| keeps its full
relative precision at the band center. The critical temperature solves the
same two-equation system as the finite case, with the strictly increasing
J(x) obtained by subtracting the equations. Around theta_c the
dimerization amplitude bifurcates like sqrt(theta_c - theta), with a
coefficient assembled from three h'' moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_chain import (CriticalPoint, DimerState, ModelParams, _dimer_band,
                           _minimize_dimer)
from .kernels import _h_prime_arr, _h_second_arr, h_eval, h_theta
from .numerics import (Bracket, Tolerance, integrate_adaptive, mode_mean,
                       solve_increasing)

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
# largest starting mode count of the mode mean; past it GK15 is cheaper. On
# J_thermo (Xeon, numpy 2.4) the mode mean took 0.41 ms at N0 = 4096 against
# 0.64 ms for GK15, and 0.53-0.73 ms at N0 = 8192 against 0.42-0.46 ms
_MODE_N0_MAX = 4096
# accuracy of all integrals in this module; max_iter caps the GK15 panels
# and the mode-mean nodes, which reach 2 * _MODE_N0_MAX on verification
_QUAD_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=2 * _MODE_N0_MAX)


def _tanh_ratio(x: float, c: float) -> float:
    # tanh(x c)/c; the series in u = x c dodges the 0/0 at the band center.
    # It must branch on u, not on c: for x ~ 1e7 a cos of 1e-6 is u ~ 10.
    u = x * c
    if u < 1e-4:
        u2 = u * u
        return x * (1.0 - u2 / 3.0 + 2.0 * u2 * u2 / 15.0)
    return math.tanh(u) / c


def _tanh_eta(x: float) -> float:
    # tanh(x cos s) and h''(x^2 cos^2 s) have their singularities nearest
    # the real axis at s = pi/2 +- i asinh(pi / (2x))
    return math.asinh(_HALF_PI / x)


def _tanh_integral(f, x: float, tol) -> float:
    """Integrate f(t) over [0, pi/2] with a split at the tanh crossover.

    tanh(x |sin t|) bends within ~1/x of the band center t = 0; for large x
    that layer hides between the outermost quadrature node and the endpoint
    where the error estimator cannot see it, so the interval is split just
    outside. Near t = 0 the nodes and sin t keep full relative precision,
    which cos s near s = pi/2 does not. The integrands are even in t, so
    [0, pi/2] covers half a period.
    """
    if x > 16.0:
        cut = 8.0 / x
        return (integrate_adaptive(f, 0.0, cut, tol)
                + integrate_adaptive(f, cut, _HALF_PI, tol))
    return integrate_adaptive(f, 0.0, _HALF_PI, tol)


def _band_mean(eta: float, f_arr, f_scalar, x: float, tol) -> float:
    """Mean over a period of an integrand even in t = s - pi/2, by the cheaper rule.

    f_arr is its vectorized form for the mode mean, f_scalar its scalar
    form for GK15 panels over [0, pi/2]; eta is the half-width of its strip
    of analyticity and x places the panel split.
    """
    n0 = 8
    while n0 * eta < 15.0 and n0 <= _MODE_N0_MAX:
        n0 *= 2
    if n0 <= _MODE_N0_MAX:
        return mode_mean(f_arr, n0, tol)
    return _tanh_integral(f_scalar, x, tol) / _HALF_PI


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
    w2, d2 = 4.0 * W * W, 4.0 * delta * delta
    band = _band_mean(
        eta, _dimer_band(W, delta, theta),
        lambda t: h_theta(w2 * math.sin(t) ** 2 + d2 * math.cos(t) ** 2, theta),
        W / theta, tol)
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - band


def minimize_dimer_thermo(p: ModelParams, init=None,
                          tol: Tolerance | None = None):
    """Minimize g_thermo over W, delta >= 0; delta < 1e-8 snaps to 0.

    ``init`` seeds the search (useful for continuation along a temperature
    sweep). Returns (DimerState, value).
    """
    if p.theta <= 0:
        raise ValueError("minimize_dimer_thermo needs theta > 0")
    g2 = lambda W, d: _g_thermo_raw(W, d, p.mu, p.theta, _QUAD_TOL)
    W, delta, val = _minimize_dimer(g2, 1.0 + 4.0 / (math.pi * p.mu), init, tol)
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
    return 2.0 * _band_mean(
        _tanh_eta(x),
        lambda t: x * _h_prime_arr((x * np.sin(t)) ** 2) * np.cos(2.0 * t),
        lambda t: _tanh_ratio(x, math.sin(t)) * math.cos(2.0 * t),
        x, tol or _QUAD_TOL)


def _first_integral(x: float, tol) -> float:
    # (4/pi) int tanh(x cos s) cos s ds, with tanh(x c) c = x h'(x^2 c^2) c^2
    def f_arr(t):
        sn2 = np.sin(t) ** 2
        return x * _h_prime_arr(x * x * sn2) * sn2
    return 2.0 * _band_mean(_tanh_eta(x), f_arr,
                            lambda t: math.tanh(x * math.sin(t)) * math.sin(t), x, tol)


def _second_integral(x: float, tol) -> float:
    # (4/pi) int tanh(x cos s) sin^2 s / cos s ds
    return 2.0 * _band_mean(
        _tanh_eta(x),
        lambda t: x * _h_prime_arr((x * np.sin(t)) ** 2) * np.cos(t) ** 2,
        lambda t: _tanh_ratio(x, math.sin(t)) * math.cos(t) ** 2,
        x, tol)


def theta_critical_thermo(mu: float, tol: Tolerance | None = None) -> CriticalPoint:
    """Critical temperature of the infinite ring; positive for every mu.

    x inverts J_thermo at mu (the bracket doubles until it straddles,
    guaranteed to end since J is onto [0, inf)); the cos^2 equation yields
    theta_c = [mu + (4/pi) int tanh(x cos s) cos s ds] / (mu x), and the
    sin^2 equation is asserted to 1e-8.
    """
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    if mu > 800:
        # theta_c ~ e^{-pi mu/4} underflows double precision near mu ~ 900
        raise ValueError(f"stiffness {mu} too large to resolve in double precision")
    qtol = _QUAD_TOL if tol is None else tol
    hi = max(1.0, mu)
    while J_thermo(hi, qtol) < mu:
        hi *= 2.0
    x = solve_increasing(lambda z: J_thermo(z, qtol), mu, Bracket(0.0, hi),
                         Tolerance(abs_tol=1e-12, rel_tol=0.0, max_iter=300))
    theta = (mu + _first_integral(x, qtol)) / (mu * x)
    W = x * theta
    residual = mu * W - _second_integral(x, qtol)
    if abs(residual) > 1e-8:
        raise RuntimeError(
            f"critical-point equations inconsistent (residual {residual:.3e})")
    return CriticalPoint(x=x, W_star=W, theta_c=theta)


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


def bifurcation_data(mu: float, tol: Tolerance | None = None) -> BifurcationData:
    """Second-order data of the transition at theta_c(mu).

    delta_prime = -(2 W* mu / theta_c^2) [(B - A) + mu theta_c^3 / (2 W*^3)]
    / det_J, where the bracket is -A by the identity
    B = -mu theta_c^3 / (2 W*^3); so delta_prime < 0 rests on A < 0 and
    det_J > 0 alone, whatever the order of A and B. det J <= 0 or
    delta_prime >= 0 would contradict the structure of the problem and
    raise as an internal-consistency failure.
    """
    qtol = tol or _QUAD_TOL
    cp = theta_critical_thermo(mu, tol)
    ratio = cp.W_star / cp.theta_c

    def moment(p):
        # (4/pi) int h''(x^2 cos^2 s) cos^(4-2p) s sin^(2p) s ds, in t; h''
        # transitions on the same cos s ~ 1/x layer as the tanh kernels
        def f_arr(t):
            sn2, cs2 = np.sin(t) ** 2, np.cos(t) ** 2
            return _h_second_arr(ratio * ratio * sn2) * sn2 ** (2 - p) * cs2 ** p

        def f_scalar(t):
            sn2, cs2 = math.sin(t) ** 2, math.cos(t) ** 2
            return h_eval(ratio * ratio * sn2).h_second * sn2 ** (2 - p) * cs2 ** p
        return 2.0 * _band_mean(_tanh_eta(ratio), f_arr, f_scalar, ratio, qtol)

    A, B, C_int = moment(0), moment(1), moment(2)

    W, th = cp.W_star, cp.theta_c
    det_J = -mu / (W * W * th) * C_int + 2.0 * W / th ** 4 * (A * C_int - B * B)
    delta_prime = (-1.0 / det_J) * (2.0 * W * mu / th ** 2) * (
        (B - A) + mu * th ** 3 / (2.0 * W ** 3))
    return BifurcationData(A=A, B=B, C_int=C_int, det_J=det_J,
                           delta_prime=delta_prime,
                           coeff=math.sqrt(-delta_prime))


def phase_diagram(mu_grid, tol: Tolerance | None = None):
    """theta_c over a stiffness grid, as (mu, theta_c) pairs.

    Per-point failures are recorded as NaN instead of aborting the sweep.
    Successful points are checked to be decreasing in mu.
    """
    rows = []
    for mu in mu_grid:
        try:
            rows.append((float(mu), theta_critical_thermo(float(mu), tol).theta_c))
        except (ValueError, RuntimeError):
            rows.append((float(mu), math.nan))
    good = [(m, t) for m, t in rows if not math.isnan(t)]
    for (m0, t0), (m1, t1) in zip(good, good[1:]):
        if m1 > m0 and not t1 < t0:
            raise RuntimeError(
                f"theta_c failed to decrease between mu={m0} and mu={m1}")
    return rows
