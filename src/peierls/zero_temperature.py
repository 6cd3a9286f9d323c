"""Ground-state limit of the infinite ring.

The energy per atom is g0(W, delta) = (mu/2)[(W-1)^2 + delta^2]
- (4/pi) int_0^{pi/2} sqrt(W^2 sin^2 s + delta^2 cos^2 s) ds. The band
integral is the complete elliptic integral M E(1 - m^2/M^2), with
M = max(W, delta) and m = min(W, delta), which the arithmetic-geometric
mean gives to machine precision in a handful of steps. The best
1-periodic state has the closed form W1 = 1 + 4/(pi mu); breaking the
periodicity always gains energy, but exponentially little in mu, which
makes both the warm start and the resolution floor below essential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_chain import DimerState, _minimize_dimer
from .kernels import elliptic_side
from .numerics import Tolerance

__all__ = [
    "GapResult",
    "g_zero",
    "periodic_optimum_zero",
    "dimer_optimum_zero",
    "gap_rate_fit",
]

# below this the periodic/dimerized energy difference is not resolved
GAP_FLOOR = 1e-10


@dataclass(frozen=True)
class GapResult:
    """Dimerization energy gain at zero temperature for one stiffness."""

    mu: float
    W1: float
    f0_per: float
    f0: float
    gap: float
    delta_opt: float
    resolved: bool = True


def _g_zero_raw(W: float, delta: float, mu: float) -> float:
    # the simplex probes delta > W too: the integral is symmetric in the two
    big, small = max(W, delta), min(W, delta)
    band = big * elliptic_side((small / big) ** 2) if big > 0.0 else 0.0
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - 4.0 / math.pi * band


def g_zero(s: DimerState, mu: float) -> float:
    """Zero-temperature energy per atom of a 2-periodic configuration."""
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    return _g_zero_raw(s.W, s.delta, mu)


def periodic_optimum_zero(mu: float):
    """Closed-form optimum among 1-periodic states: (W1, f0_per).

    W1 = 1 + 4/(pi mu) and f0_per = -4/pi - 8/(pi^2 mu).
    """
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    return 1.0 + 4.0 / (math.pi * mu), -4.0 / math.pi - 8.0 / (math.pi ** 2 * mu)


def dimer_optimum_zero(mu: float, tol: Tolerance | None = None) -> GapResult:
    """Full (W, delta) optimum and the periodicity-breaking energy gain.

    The search warm-starts at the scale delta ~ e^{-(pi mu/4 + 1/2)} where
    the dimerized well sits; a cold multistart misses it for mu beyond ~4
    because the landscape is exponentially flat in delta. Practical range
    mu <= ~8; past that the gap drops below the 1e-10 resolution floor and
    the result is flagged unresolved.
    """
    W1, f0_per = periodic_optimum_zero(mu)
    delta_scale = math.exp(-(math.pi * mu / 4.0 + 0.5))
    g2 = lambda W, d: _g_zero_raw(W, d, mu)
    W, delta, f0 = _minimize_dimer(g2, W1, init=(W1, delta_scale), tol=tol)
    if f0 > f0_per:
        # the dimerized search can only improve on the closed form
        W, delta, f0 = W1, 0.0, f0_per
    gap = f0_per - f0
    # past mu = 8 the true gap (~e^{-pi mu/2}) sinks toward the minimizer's
    # resolution, so anything measured there is not trusted either
    resolved = gap > GAP_FLOOR and mu <= 8.0
    if mu <= 8.0 and gap <= 0.0:
        raise RuntimeError(
            f"failed to resolve the dimerization gap at mu={mu}: gap={gap:.3e}")
    return GapResult(mu=mu, W1=W1, f0_per=f0_per, f0=f0, gap=gap,
                     delta_opt=delta, resolved=resolved)


def gap_rate_fit(mu_values, tol: Tolerance | None = None):
    """Least-squares slope of ln(gap) against mu; expected near -pi/2.

    Unresolved gaps are dropped; fewer than three usable points is an
    error. Returns (slope, intercept).
    """
    pts = []
    for mu in mu_values:
        res = dimer_optimum_zero(float(mu), tol)
        if res.resolved:
            pts.append((res.mu, math.log(res.gap)))
    if len(pts) < 3:
        raise ValueError(
            f"need at least 3 resolvable gaps for a rate fit, got {len(pts)}")
    mus = np.array([p[0] for p in pts])
    logs = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(mus, logs, 1)
    return float(slope), float(intercept)
