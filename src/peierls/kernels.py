"""Scalar kernels of the model.

The occupation entropy S, the h family h(y) = 2 ln(2 cosh sqrt(y)) with its
first two derivatives, the temperature-scaled kernel h_theta, the
Fermi-Dirac electronic free energy of an eigenvalue list, and the complete
elliptic integral of the second kind, by the arithmetic-geometric mean, in
the form the zero-temperature analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "entropy",
    "HKernelValue",
    "h_eval",
    "h_theta",
    "electron_free_energy",
    "elliptic_side",
]

# below this, h' and h'' switch to truncated Taylor series (0/0 guard)
_SERIES_CUTOFF = 1e-6
_EPS = float(np.finfo(float).eps)


def entropy(x: float) -> float:
    """x ln x + (1-x) ln(1-x) on [0, 1], with value 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"occupation must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return x * math.log(x) + (1.0 - x) * math.log1p(-x)


def _log2cosh(u: float) -> float:
    # ln(2 cosh u) = |u| + ln(1 + e^{-2|u|}), overflow-safe for all u
    u = abs(u)
    return u + math.log1p(math.exp(-2.0 * u))


@dataclass(frozen=True)
class HKernelValue:
    """h, h', h'' at a point y >= 0 of the electronic kernel."""

    y: float
    h: float
    h_prime: float
    h_second: float


def h_eval(y: float) -> HKernelValue:
    """Evaluate h(y) = 2 ln(2 cosh sqrt(y)) together with h' and h''.

    h'(y) = tanh(sqrt y)/sqrt y and
    h''(y) = sech^2(sqrt y)/(2y) - tanh(sqrt y)/(2 y^{3/2});
    both have removable singularities at 0 (h'(0) = 1, h''(0) = -1/3)
    handled by Taylor series below the crossover.
    """
    if y < 0:
        raise ValueError(f"h is defined for y >= 0, got {y}")
    r = math.sqrt(y)
    h = 2.0 * _log2cosh(r)
    if y < _SERIES_CUTOFF:
        hp = 1.0 - y / 3.0 + 2.0 * y * y / 15.0
        hpp = -1.0 / 3.0 + 4.0 * y / 15.0 - 17.0 * y * y / 105.0
    else:
        th = math.tanh(r)
        hp = th / r
        sech2 = 1.0 - th * th
        hpp = sech2 / (2.0 * y) - th / (2.0 * y * r)
    return HKernelValue(y=y, h=h, h_prime=hp, h_second=hpp)


def h_theta(x: float, theta: float) -> float:
    """theta * h(x / (4 theta^2)); the per-mode free energy of a squared level.

    Equals sqrt(x) + 2 theta ln(1 + e^{-sqrt(x)/theta}), hence always >= sqrt(x).
    """
    if theta <= 0:
        raise ValueError(f"temperature must be positive, got {theta}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    r = math.sqrt(x)
    return r + 2.0 * theta * math.log1p(math.exp(-r / theta))


def _h_theta_arr(x: np.ndarray, theta: float) -> np.ndarray:
    # vectorized h_theta for trusted non-negative input
    r = np.sqrt(x)
    return r + 2.0 * theta * np.log1p(np.exp(-r / theta))


def _h_prime_arr(y: np.ndarray) -> np.ndarray:
    # vectorized h' with the series guard
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < _SERIES_CUTOFF
    ys = y[small]
    out[small] = 1.0 - ys / 3.0 + 2.0 * ys * ys / 15.0
    r = np.sqrt(y[~small])
    out[~small] = np.tanh(r) / r
    return out


def _h_second_arr(y: np.ndarray) -> np.ndarray:
    # vectorized h'' with the series guard
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < _SERIES_CUTOFF
    ys = y[small]
    out[small] = -1.0 / 3.0 + 4.0 * ys / 15.0 - 17.0 * ys * ys / 105.0
    yl = y[~small]
    r = np.sqrt(yl)
    th = np.tanh(r)
    out[~small] = (1.0 - th * th) / (2.0 * yl) - th / (2.0 * yl * r)
    return out


def _occupation(eps: float, theta: float) -> float:
    # 1 / (1 + e^{eps/theta}) without overflow
    u = eps / theta
    if u >= 0:
        z = math.exp(-u)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(u))


def electron_free_energy(eigs, theta: float):
    """Minimal electronic free energy 2 Tr(T gamma) + 2 theta Tr S(gamma).

    The minimizer is the Fermi-Dirac occupation gamma_i = 1/(1+e^{eps_i/theta}).
    The value is computed both as 2 sum(eps*gamma + theta*S(gamma)) and in the
    closed form sum(eps) - sum(h_theta(eps^2)); the two must agree to 1e-10.
    For ring hopping matrices sum(eps) vanishes and the closed form is just
    -sum h_theta(eps^2). Returns (value, occupations).
    """
    if theta <= 0:
        raise ValueError(f"temperature must be positive, got {theta}")
    eigs = np.asarray(eigs, dtype=float).ravel()
    occ = np.array([_occupation(e, theta) for e in eigs])
    direct = 2.0 * sum(e * g + theta * entropy(g) for e, g in zip(eigs, occ))
    closed = float(np.sum(eigs)) - sum(h_theta(e * e, theta) for e in eigs)
    if abs(direct - closed) > 1e-10:
        raise RuntimeError(
            "Fermi-Dirac evaluations disagree: "
            f"direct={direct!r}, closed={closed!r}")
    return closed, occ


def elliptic_side(a: float) -> float:
    """int_0^1 sqrt(1 + a u^2/(1-u^2)) du = E(1-a) for a in [0, 1].

    With u = sin(phi) this is int_0^{pi/2} sqrt(1 - (1-a) sin^2 phi) dphi,
    computed by the arithmetic-geometric mean of 1 and sqrt(a)
    (Abramowitz & Stegun 17.6): E = K (1 - sum_n 2^(n-1) c_n^2) with
    K = pi / (2 AGM). The mean converges quadratically; it stops once the two
    means agree to a few ulps. At a = 0 the mean tends to 0 and never
    converges, so the endpoint E(1) = 1 is returned directly.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {a}")
    if a == 0.0:
        return 1.0
    x, y = 1.0, math.sqrt(a)
    p, s = 0.5, 0.5 * (1.0 - a)  # 2^(n-1) and the sum so far, c_0^2 = 1 - a
    while x - y > 4.0 * _EPS * x:
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        p *= 2.0
        s += p * c * c
    return math.pi / (2.0 * x) * (1.0 - s)
