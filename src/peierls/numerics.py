"""Model-agnostic numerical primitives.

One quadrature rule, the mode mean: a vectorized trapezoid rule for smooth
periodic integrands f(sin t, cos t), whose error falls geometrically with
the node count, on nodes mapped towards a sharp layer wherever that widens
the integrand's strip of analyticity. Then one root solver for increasing
residuals, bracketed Newton's method in a log variable, and
minimization (a projected derivative-free simplex on the orthant x >= 0,
and damped Newton descent on a box where the Hessian is known). Ring
spectra need no primitive here: the model calls numpy's eigvalsh on
matrices it builds symmetric. Everything here is a pure function of its
inputs and safe to call from many workers at once; the mode mean's mapped
nodes, as sin t, cos t and dt/du, are cached read-only per (p, N) level,
at most 12 MB. The mode mean takes the one accuracy its callers vary,
abs_tol; the rest is a module constant.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "mode_mean",
]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted. Carries the best estimate found so far, if any."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _mode_nodes(n: int, midpoints: bool = False) -> np.ndarray:
    # -pi/2 + pi j/n, j = 0..n-1 (or the midpoints), as an exact
    # half-integer times pi/n: nodes near 0 keep full relative precision
    return (np.arange(n) - (n - midpoints) / 2) * (np.pi / n)


def _start_nodes(eta: float) -> int:
    # the power of two N >= 15/eta (at least 8): predicted error e^(-2 eta N)
    # ~ 1e-13 at the first estimate, so one doubling verifies it
    n = 8
    while n * eta < 15.0:
        n *= 2
    return n


# the mode mean's relative target: two estimates agree at abs_tol + this |est|
_MEAN_REL_TOL = 1e-12
# the mode mean's cap on N: the least power of two at which every mean on the
# stiffness domain (finite_chain._MU_MIN, _MU_MAX) converges. The largest need
# is bifurcation_data's at mu = 200: its h'' moments start at N0 = 4096, as
# J_thermo does at theta_c's x = 2.7e68, but their double poles take two doublings
_MEAN_MAX_NODES = 16384


def _strip_width(eta: float, p: int) -> float:
    s = math.sin(math.pi / (2 * p))  # for odd p >= 3, see _node_map
    return min(eta ** (1.0 / p) * s, 0.5 * math.atanh(s))


def _node_map(eta: float) -> tuple[int, int]:
    """(p, N0): the odd power of the node map and the starting node count.

    Under tan t = tan^p u a strip |Im t| < eta becomes, near u = 0 and
    +-pi/2, a strip of half-width eta^(1/p) sin(pi/2p); the map is analytic
    within atanh(sin(pi/2p))/2 of the real axis. The p with the widest of
    these minima is taken, p = 1 (no map) counting as eta itself: so every
    eta below atanh(1/2)/2 = 0.2747 is mapped. The walk up the odd p starts
    at 1, or below eta = 1e-3 two under the peak of eta^(1/p) sin(pi/2p).
    """
    p, w = 1, eta
    if eta < 1e-3:  # the peak is near p = pi / (2 atan(pi / (2 ln(1/eta))))
        p = 2 * round(0.25 * math.pi / math.atan(0.5 * math.pi / -math.log(eta)) - 0.5) - 1
        w = _strip_width(eta, p)
    while (w_next := _strip_width(eta, p + 2)) > w:
        p, w = p + 2, w_next
    return p, _start_nodes(w)


def _map_nodes(u: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, dt/du) on nodes u for tan t = tan^p u: f(t) dt/du has f's mean.

    With a = |sin u|, b = |cos u| and r = min(a, b)/max(a, b) <= 1, t is
    sign(u) atan(r^p) where a <= b and sign(u) (pi/2 - atan(r^p)) elsewhere,
    and dt/du = p r^(p-1) / (max(a, b)^2 (1 + r^(2p))): no overflow, no 0/0
    at u = 0 or +-pi/2, and t keeps full relative precision near 0.
    """
    a, b = np.abs(np.sin(u)), np.abs(np.cos(u))
    big = np.maximum(a, b)
    r = np.minimum(a, b) / big
    r_pm1 = r ** (p - 1)
    r_p = r_pm1 * r
    t = np.arctan(r_p)
    t = np.copysign(np.where(a <= b, t, 0.5 * np.pi - t), u)
    return t, p * r_pm1 / (big * big * (1.0 + r_p * r_p))


# mapped levels kept; an entry is at most 384 KB (the start at N0 = 8192)
_MAPPED_CACHE = 32


@functools.lru_cache(maxsize=_MAPPED_CACHE)
def _mapped_nodes(n: int, p: int, start: bool):
    # read-only sin t, cos t, dt/du on the start's nodes then midpoints, or midpoints
    u = _mode_nodes(n, True)
    t, dt = _map_nodes(np.concatenate((_mode_nodes(n), u)) if start else u, p)
    sin_t, cos_t = np.sin(t), np.cos(t)
    sin_t.flags.writeable = cos_t.flags.writeable = dt.flags.writeable = False
    return sin_t, cos_t, dt


def mode_mean(f: Callable[[np.ndarray, np.ndarray], np.ndarray], eta: float,
              abs_tol: float) -> float | list[float]:
    """Mean of a vectorized pi-periodic f over one period, by the trapezoid rule.

    f(sin t, cos t) maps the sines and cosines of an array of nodes t to
    its values, and is analytic in the strip |Im t| < eta; the error on N
    equally spaced nodes then falls like e^(-2 eta N). The nodes u_j = -pi/2
    + pi j/N of [-pi/2, pi/2) carry full relative precision near 0; by
    periodicity the mean is that over [0, pi). The nodes are mapped by
    tan t = tan^p u with the odd p that widens the strip most (see
    :func:`_node_map`): p > 1 crowds them towards t = 0 and +-pi/2, where
    the band integrands' singularities lie, and p = 1 leaves them in place
    to about an ulp. N starts at the power of two N0 >= 15/eta of the mapped
    strip, where the predicted error is ~1e-13, and doubles with the old
    nodes reused: the new estimate is the mean of the old one and that over
    the midpoints. The start level and its first doubling are one call of f
    on the N0 nodes then their midpoints, each later doubling one call on
    its midpoints; every level's sin t, cos t and dt/du are cached read-only
    per (p, N), _MAPPED_CACHE levels and at most 12 MB, so a warm mean does
    no trig. The finer estimate is returned once two agree to
    ``abs_tol + _MEAN_REL_TOL * |est|``.
    f may also return a (k, N) stack of integrands that share a strip and a
    costly factor: the k means converge together, each to the tolerance,
    and come back as a list of k floats; a 1-D f gives one float.
    _MEAN_MAX_NODES caps N; past it, or when N0 leaves no room for a
    doubling, :class:`ConvergenceError` is raised.
    """
    if not (eta > 0 and abs_tol >= 0):
        raise ValueError("mode_mean needs a strip half-width eta > 0 and "
                         f"abs_tol >= 0, got eta = {eta}, abs_tol = {abs_tol}")
    p, n = _node_map(eta)
    if 2 * n > _MEAN_MAX_NODES:
        raise ConvergenceError(
            f"mode mean needs {n} nodes and a doubling for eta = {eta:.3e}, "
            f"beyond the cap of {_MEAN_MAX_NODES}")
    mapped = lambda sin_t, cos_t, dt: f(sin_t, cos_t) * dt  # f(t) dt/du on mapped t
    v = mapped(*_mapped_nodes(n, p, True))
    # sum / n is np.mean's arithmetic without its per-call overhead; one
    # integrand's mean (rows = 0) stays a Python float, cheaper than numpy's
    s, mid = v[..., :n].sum(axis=-1), v[..., n:]
    rows = s.ndim
    est = s / n if rows else float(s) / n
    while mid is not None:
        s = mid.sum(axis=-1)
        new = 0.5 * (est + (s / n if rows else float(s) / n))
        n *= 2
        close = abs(new - est) <= abs_tol + _MEAN_REL_TOL * abs(new)
        if close.all() if rows else close:
            return new.tolist() if rows else new
        est = new
        mid = mapped(*_mapped_nodes(n, p, False)) if 2 * n <= _MEAN_MAX_NODES else None
    best = est.tolist() if rows else est
    raise ConvergenceError(
        f"mode mean did not converge within {_MEAN_MAX_NODES} nodes "
        f"(estimate {best!r} at N = {n})", best=best)


_SOLVE_MAX_ITER = 100  # a root solve's Newton iterates


def _newton_log(step, u: float):
    """(u, out) at the root of an increasing residual in a log variable u.

    step(u) gives the residual, its slope in u and out. Newton steps, capped
    at ln 2, bisect the bracket of the residuals' signs where they leave it.
    The iterate after a Newton step <= 3e-8 (u is quadratically converged),
    a step below u's rounding or a bracket at machine resolution ends the
    solve; ConvergenceError(best=u) after _SOLVE_MAX_ITER, as on a NaN.
    """
    lo, hi, newton = -math.inf, math.inf, False
    for _ in range(_SOLVE_MAX_ITER):
        r, slope, out = step(u)
        if (newton and abs(s) <= 3e-8) or hi - lo <= 4.0 * math.ulp(max(abs(u), 1.0)):
            return u, out
        lo, hi = (u, hi) if r < 0.0 else (lo, u)
        d = -r / slope if slope > 0.0 else math.copysign(math.inf, -r)
        if u + d == u:  # u is the root to rounding
            return u, out
        s = d if lo < u + d < hi else 0.5 * (lo + hi) - u
        newton, u = s == d, u + math.copysign(min(abs(s), math.log(2.0)), s)
    raise ConvergenceError(f"Newton's method did not converge (u = {u!r})", best=u)


# the dimer searches' accuracy: the simplex's value tolerance and budget
_SIMPLEX_TOL = 1e-13
_SIMPLEX_MAX_ITER = 2000


def minimize_box(f: Callable[[np.ndarray], float], init: Sequence[float],
                 step: Sequence[float]):
    """Minimize f over the orthant x >= 0 by a projected Nelder-Mead simplex.

    Returns ``(x, f(x))``. The initial simplex moves init by ``step[i]``
    along coordinate i, or back by it where the moved vertex is np.allclose
    to init: where the clamp undoes the move, or the step is below
    allclose's 1e-5 relative tolerance. Every candidate is clamped onto
    x >= 0 before it is evaluated. The expansion, contraction and shrink
    coefficients adapt to the dimension d, which behaves better for d >= 4.
    With tol = _SIMPLEX_TOL, it stops once the vertex values agree to ``tol
    + tol * |best|`` and the vertices lie within max(1e-2 sqrt(tol), 1e-12)
    of the best one; after _SIMPLEX_MAX_ITER iterations it raises
    :class:`ConvergenceError` with ``best=(x, fx)``.
    """
    x0 = np.maximum(np.asarray(init, dtype=float), 0.0)
    d = x0.size
    gamma, beta, sigma = 1.0 + 2.0 / d, 0.75 - 1.0 / (2.0 * d), 1.0 - 1.0 / d
    xatol = max(math.sqrt(_SIMPLEX_TOL) * 1e-2, 1e-12)

    simplex = [x0]
    for e in np.eye(d) * np.asarray(step, dtype=float):  # step[i] along coordinate i
        v = np.maximum(x0 + e, 0.0)
        simplex.append(np.maximum(x0 - e, 0.0) if np.allclose(v, x0) else v)
    fs = [f(v) for v in simplex]

    for _ in range(_SIMPLEX_MAX_ITER):
        order = np.argsort(fs, kind="stable")
        simplex = [simplex[i] for i in order]
        fs = [fs[i] for i in order]
        fbest, fworst = fs[0], fs[-1]
        spread = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        if fworst - fbest <= _SIMPLEX_TOL + _SIMPLEX_TOL * abs(fbest) and spread <= xatol:
            return simplex[0], fbest

        centroid = np.mean(simplex[:-1], axis=0)
        xr = np.maximum(centroid + (centroid - simplex[-1]), 0.0)
        fr = f(xr)
        if fr < fs[0]:
            xe = np.maximum(centroid + gamma * (xr - centroid), 0.0)
            fe = f(xe)
            simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            simplex[-1], fs[-1] = xr, fr
        else:
            pull = xr if fr < fs[-1] else simplex[-1]  # the outside or the inside contraction
            xc = np.maximum(centroid + beta * (pull - centroid), 0.0)
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                simplex[-1], fs[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    simplex[i] = np.maximum(simplex[0] + sigma * (simplex[i] - simplex[0]), 0.0)
                    fs[i] = f(simplex[i])
    i = np.argsort(fs, kind="stable")[0]
    raise ConvergenceError(
        f"simplex search did not converge in {_SIMPLEX_MAX_ITER} iterations",
        best=(simplex[i], fs[i]))


# first primes, for the Kronecker (sqrt-prime) lattice of lattice_points
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89)


def lattice_points(n: int, d: int) -> np.ndarray:
    """n quasi-uniform points in [0,1)^d, d <= 24: 0.5 + j sqrt(p_i) mod 1."""
    alpha = np.sqrt(np.array(_PRIMES[:d], dtype=float))
    return np.modf(0.5 + np.arange(1, n + 1)[:, None] * alpha)[0]


def _newton_box(fgh, x, lower: float, upper: float, max_steps: int):
    """Damped Newton descent from x on the box [lower, upper]^d; returns (x, F).

    fgh(x) gives F, its gradient g and Hessian H. Coordinates on a bound
    that g pushes outwards stay put; the rest take the Newton step of H with
    |eigenvalues| floored at 1e-8 of the largest, clipped onto the box and
    halved until F falls by 1e-4 of the decrease g predicts. Where the full
    step's predicted decrease is below F's rounding, the step is taken if
    the free gradient shrinks, else x is returned; so it is when the step
    falls to x's rounding level. ConvergenceError(best=(x, F)) is raised
    after ``max_steps`` steps.
    """
    eps = np.finfo(float).eps
    F, g, H = fgh(x)
    free = lambda x, g: ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
    for _ in range(max_steps):
        free_x = free(x, g)
        w, U = np.linalg.eigh(H[np.ix_(free_x, free_x)])
        w = np.abs(w)
        p = np.zeros_like(x)
        p[free_x] = -U @ ((U.T @ g[free_x]) / np.maximum(w, 1e-8 * w.max(initial=0.0)))
        flat = -(g @ p) <= 16 * x.size * eps * (1.0 + abs(F))
        s = 1.0
        while True:
            xn = np.clip(x + s * p, lower, upper)
            d = xn - x
            if np.abs(d).max() <= 4 * eps * np.abs(x).max():
                return x, F
            Fn, gn, Hn = fgh(xn)
            if flat:
                if np.linalg.norm(gn[free(xn, gn)]) >= np.linalg.norm(g[free_x]):
                    return x, F
                break
            if Fn < F + 1e-4 * min(g @ d, 0.0):
                break
            s *= 0.5
        x, F, g, H = xn, Fn, gn, Hn
    raise ConvergenceError(
        f"Newton descent did not converge in {max_steps} steps", best=(x, F))
