"""Ground-state limit of the infinite ring.

The energy per atom is g0(W, delta) = (mu/2)[(W-1)^2 + delta^2]
- (4/pi) int_0^{pi/2} sqrt(W^2 sin^2 s + delta^2 cos^2 s) ds. The band
integral is the complete elliptic integral M E(1 - m^2/M^2), with
M = max(W, delta) and m = min(W, delta), which the arithmetic-geometric
mean gives to machine precision in a handful of steps. The best
1-periodic state has the closed form W1 = 1 + 4/(pi mu). Breaking the
periodicity gains energy, exponentially little in mu; the optimum is one
Euler-Lagrange root, found by Newton's method, and the gain is summed from
terms of its own size, not as a difference of two energies of order 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_chain import _MU_MAX, DimerState, _check_mu
from .kernels import _EPS, _elliptic_ke, elliptic_side
from .numerics import ConvergenceError

__all__ = [
    "GapResult",
    "g_zero",
    "periodic_optimum_zero",
    "dimer_optimum_zero",
    "gap_rate_fit",
]

_NEWTON_MAX_ITER = 8  # the gap root takes at most 5 evaluations from _MU_MIN to _MU_MAX


@dataclass(frozen=True)
class GapResult:
    """The 1-periodic optimum (W1, f0_per), the full one (f0, delta_opt) and
    the dimerization gain gap = f0_per - f0 > 0 at zero temperature."""

    mu: float
    W1: float
    f0_per: float
    f0: float
    gap: float
    delta_opt: float


def _g_zero_raw(W: float, delta: float, mu: float) -> float:
    # symmetric in W and delta, so delta > W is accepted too
    big, small = max(W, delta), min(W, delta)
    band = big * elliptic_side((small / big) ** 2) if big > 0.0 else 0.0
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - 4.0 / math.pi * band


def g_zero(s: DimerState, mu: float) -> float:
    """Zero-temperature energy per atom of a 2-periodic configuration."""
    if not 0 < mu < math.inf:
        raise ValueError(f"stiffness must be positive and finite, got {mu}")
    return _g_zero_raw(s.W, s.delta, mu)


def periodic_optimum_zero(mu: float):
    """Closed-form optimum among 1-periodic states: (W1, f0_per).

    W1 = 1 + 4/(pi mu) and f0_per = -4/pi - 8/(pi^2 mu).
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"stiffness must be positive and finite, got {mu}")
    return 1.0 + 4.0 / (math.pi * mu), -4.0 / math.pi - 8.0 / (math.pi ** 2 * mu)


def _e_minus_one(q: float, E: float) -> float:
    """E - 1 for the modulus sqrt(1 - q^2); below q = 0.2 by A&S 17.3.36,
    sum_n a_n [ln(4/q) - d_n] q^(2n), whose terms are all positive."""
    if q >= 0.2:
        return E - 1.0
    lead, total, a, d, n, term = math.log(4.0 / q), 0.0, 0.5, 0.5, 1, math.inf
    while term > _EPS * total:  # to the sum's rounding; the rest add < 5 % of a term
        term = a * (lead - d) * q ** (2 * n)
        total += term
        a *= (4 * n * n - 1) / (4 * n * (n + 1))
        d += 1.0 / ((2 * n - 1) * 2 * n) + 1.0 / ((2 * n + 1) * (2 * n + 2))
        n += 1
    return total


def dimer_optimum_zero(mu: float) -> GapResult:
    """Full (W, delta) optimum and the periodicity-breaking gain, 1e-8 <= mu <= 200.

    With q = delta/W, and K and E of the modulus sqrt(1 - q^2), the
    Euler-Lagrange equations are mu (W - 1) = (4/pi)(E - q^2 K)/(1 - q^2)
    and mu W = (4/pi)(K - E)/(1 - q^2). Their difference D depends on q
    alone and rises from 0 at q = 1 to infinity as q -> 0. Newton's method
    on ln D in ln v, v = ln(1/q), from the law delta ~ 4 W1 e^(-2 - pi mu/4),
    solves it in at most 5 means; the last one's K and E give W, delta and
    the gain, ~ (16/pi) e^-4 W1 e^(-pi mu/2), summed from terms of its size.
    """
    _check_mu(mu, _MU_MAX)  # a NaN would never meet the stopping rule
    W1, f0_per = periodic_optimum_zero(mu)
    v = 0.25 * math.pi * mu + 2.0 - math.log(4.0)
    for _ in range(_NEWTON_MAX_ITER):
        a = math.exp(-2.0 * v)
        K, E, tail = _elliptic_ke(a)
        b, N = -math.expm1(-2.0 * v), 2.0 * K * tail  # 1 - q^2; N = 2 K S, no cancellation
        D = 4.0 / math.pi * N / b
        # D grows like (4/pi) v, so 4 ulps of mu leave v at its rounding
        if abs(D - mu) <= 4.0 * _EPS * max(1.0, mu):
            break
        # d ln D / d ln v = v [(E - q^2 K) - 2 q^2 N/(1 - q^2)]/N, by A&S 17.3
        v *= math.exp(math.log(mu / D) * N / (v * (E - a * K - 2.0 * a * N / b)))
    else:
        raise ConvergenceError(f"no gap root in {_NEWTON_MAX_ITER} Newton steps", best=v)
    q = math.exp(-v)
    e1 = _e_minus_one(q, E)
    # W - W1 from the first equation, (pi mu/4)(W - W1) = (E - q^2 K)/(1 - q^2)
    # - 1, summed without cancellation: from E - 1 and q^2 (K - 1) as q -> 0,
    # as (K/2 - 1) - K S/(1 - q^2) as q -> 1; then f0_per - f0 likewise
    dW = 4.0 / (math.pi * mu) * ((e1 - a * (K - 1.0)) / (1.0 - a) if q < 0.5
                                 else 0.5 * K - 1.0 - 0.5 * N / b)
    W = W1 + dW
    delta = q * W
    gap = (0.5 * mu * (-dW * (W1 + W - 2.0) - delta * delta)
           + 4.0 / math.pi * (dW * E + W1 * e1))
    return GapResult(mu=mu, W1=W1, f0_per=f0_per, f0=f0_per - gap, gap=gap,
                     delta_opt=delta)


def gap_rate_fit(mu_values):
    """Least-squares slope of ln(gap) against mu; expected near -pi/2.

    Needs at least three stiffnesses, each within dimer_optimum_zero's
    domain. Returns (slope, intercept).
    """
    mus = [float(mu) for mu in mu_values]
    if len(mus) < 3:
        raise ValueError(f"need at least 3 gaps for a rate fit, got {len(mus)}")
    logs = [math.log(dimer_optimum_zero(mu).gap) for mu in mus]
    slope, intercept = np.polyfit(mus, logs, 1)
    return float(slope), float(intercept)
