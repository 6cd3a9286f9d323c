"""Array kernels of the model.

The occupation entropy S and the temperature-scaled per-mode free energy
h_theta(x) = theta h(x / (4 theta^2)) of h(y) = 2 ln(2 cosh sqrt(y)), each on
a float or an array; h' and h'' on arrays; the Fermi-Dirac electronic free
energy of an eigenvalue list; and the complete elliptic integrals K and E,
both from one arithmetic-geometric mean, in the form the zero-temperature
analysis needs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entropy",
    "h_theta",
    "electron_free_energy",
    "elliptic_side",
]

# below this, h' switches to its truncated Taylor series (0/0 guard)
_SERIES_CUTOFF = 1e-6
# 1/(2k+3)! for k = 11 down to 0: the series of Q(s) = (sinh s - s)/s^3 in
# s^2, to rounding for s^2 < 4
_Q_SERIES = [1.0 / math.factorial(2 * k + 3) for k in range(11, -1, -1)]
_EPS = float(np.finfo(float).eps)


def entropy(x):
    """x ln x + (1-x) ln(1-x) on [0, 1], with value 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"occupation must lie in [0, 1], got {x}")
    inner = (x > 0.0) & (x < 1.0)
    s = np.where(inner, x, 0.5)  # keeps log(0) out of the endpoints
    out = np.where(inner, s * np.log(s) + (1.0 - s) * np.log1p(-s), 0.0)
    return float(out) if out.ndim == 0 else out


def h_theta(x, theta: float):
    """theta * h(x / (4 theta^2)); the per-mode free energy of a squared level.

    Equals sqrt(x) + 2 theta ln(1 + e^{-sqrt(x)/theta}), hence always >= sqrt(x).
    A float x must be finite and >= 0, and gives a float; arrays are not checked.
    """
    if not 0 < theta < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {theta}")
    scalar = not isinstance(x, np.ndarray)
    if scalar and not 0 <= x < math.inf:
        raise ValueError(f"argument must be finite and non-negative, got {x}")
    r = np.sqrt(x)
    out = r + 2.0 * theta * np.log1p(np.exp(-r / theta))
    return float(out) if scalar else out


def _h_prime(y: np.ndarray) -> np.ndarray:
    # h'(y) = tanh(sqrt y)/sqrt y, h'(0) = 1: its series on every node, then
    # tanh(r)/r over it from the cutoff up (y^2 overflows past y ~ 1e154)
    y = np.asarray(y, dtype=float)
    r = np.sqrt(y)
    return np.divide(np.tanh(r), r, out=1.0 - y / 3.0 + 2.0 * y * y / 15.0,
                     where=y >= _SERIES_CUTOFF)


def _h_second(y: np.ndarray) -> np.ndarray:
    # h''(y) = sech^2(sqrt y)/(2y) - tanh(sqrt y)/(2 y^{3/2}); below y = 1,
    # where those two terms cancel, the same as -2 Q(2 sqrt y)/cosh^2(sqrt y)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < 1.0
    ys = y[small]
    out[small] = -2.0 * np.polyval(_Q_SERIES, 4.0 * ys) / np.cosh(np.sqrt(ys)) ** 2
    yl = y[~small]
    r = np.sqrt(yl)
    th = np.tanh(r)
    out[~small] = (1.0 - th * th) / (2.0 * yl) - th / (2.0 * yl * r)
    return out


def _sech2(z: np.ndarray) -> np.ndarray:
    # sech^2 z as 4e/(1 + e)^2, e = e^(-2|z|): 1 - tanh^2 z cancels where tanh z ~ 1
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / ((1.0 + e) * (1.0 + e))


def _tanh_eta(x: float) -> float:
    # tanh(x cos s) and h''(x^2 cos^2 s) have their singularities nearest
    # the real axis at s = pi/2 +- i asinh(pi / (2x))
    return math.asinh(0.5 * math.pi / x)


def electron_free_energy(eigs, theta: float):
    """Minimal electronic free energy 2 Tr(T gamma) + 2 theta Tr S(gamma).

    The minimizer is the Fermi-Dirac occupation gamma_i = 1/(1+e^{eps_i/theta}).
    The value is computed both as 2 sum(eps*gamma + theta*S(gamma)) and in the
    closed form sum(eps) - sum(h_theta(eps^2)); the two must agree to 1e-10.
    For ring hopping matrices sum(eps) vanishes and the closed form is just
    -sum h_theta(eps^2). Returns (value, occupations).
    """
    if not 0 < theta < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {theta}")
    eigs = np.asarray(eigs, dtype=float).ravel()
    u = eigs / theta
    z = np.exp(-np.abs(u))  # the occupation without overflow
    occ = np.where(u >= 0.0, z / (1.0 + z), 1.0 / (1.0 + z))
    direct = 2.0 * float(np.sum(eigs * occ + theta * entropy(occ)))
    closed = float(np.sum(eigs)) - float(np.sum(h_theta(eigs * eigs, theta)))
    if abs(direct - closed) > 1e-10:
        raise RuntimeError(f"Fermi-Dirac evaluations disagree: direct={direct!r}, "
                           f"closed={closed!r}")
    return closed, occ


def _elliptic_ke(a: float) -> tuple[float, float, float]:
    """K(1 - a), E(1 - a) and S = sum_{n>=1} 2^(n-1) c_n^2 for a in (0, 1] by the
    mean of 1 and sqrt(a) (A&S 17.6): K = pi / (2 AGM), E = K (1 - c_0^2/2 - S)
    with c_0^2 = 1 - a, and (1 + a) K - 2E = 2 K S without cancellation as
    a -> 1. It converges quadratically and stops once the means agree to 4 ulps."""
    x, y = 1.0, math.sqrt(a)
    p, s, tail = 0.5, 0.5 * (1.0 - a), 0.0  # 2^(n-1), the sum from n = 0, S
    while x - y > 4.0 * _EPS * x:
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        p *= 2.0
        term = p * c * c
        s += term
        tail += term
    K = math.pi / (2.0 * x)
    return K, K * (1.0 - s), tail


def elliptic_side(a: float) -> float:
    """int_0^1 sqrt(1 + a u^2/(1-u^2)) du = E(1-a) for a in [0, 1].

    With u = sin(phi) this is int_0^{pi/2} sqrt(1 - (1-a) sin^2 phi) dphi,
    the E of :func:`_elliptic_ke`. At a = 0 the mean tends to 0 and never
    converges, so the endpoint E(1) = 1 is returned directly.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {a}")
    if a == 0.0:
        return 1.0
    return _elliptic_ke(a)[1]
