"""Model-agnostic numerical primitives.

Two quadrature rules: the mode mean, a vectorized trapezoid rule for smooth
periodic integrands whose error falls geometrically with the node count,
and adaptive Gauss-Kronrod panels for the rest. Then monotone root solving,
box-constrained derivative-free minimization with multistart, and checked
spectra of dense symmetric matrices by LAPACK's eigvalsh through numpy.
Everything here is a pure function of its inputs and safe to call from many
workers at once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "Bracket",
    "ConvergenceError",
    "integrate_adaptive",
    "mode_mean",
    "solve_increasing",
    "minimize_box",
    "minimize_multistart",
    "eigenvalues_symmetric",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request: absolute and relative targets plus an iteration cap.

    ``max_iter`` is interpreted per operation (quadrature panels, mode-mean
    nodes, solver iterations, simplex iterations).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol + self.rel_tol <= 0:
            raise ValueError("abs_tol + rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted. Carries the best estimate found so far."""

    def __init__(self, message, best=None, bound=None):
        super().__init__(message)
        self.best = best
        self.bound = bound


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (classic QUADPACK values).
_K15_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss weights sit on Kronrod nodes 1, 3, ..., 13.
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _gk15(f, a, b):
    """One 15-point Kronrod panel on [a, b]: (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.empty(15)
    for i in range(15):
        fv[i] = f(mid + half * _K15_NODES[i])
    ik = half * float(_K15_WEIGHTS @ fv)
    ig = half * float(_G7_WEIGHTS @ fv[1:14:2])
    return ik, abs(ik - ig)


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: Tolerance | None = None) -> float:
    """Integrate f over [a, b] with adaptive 15-point panels.

    Panels are split by recursive bisection, worst error first, until the
    summed error estimate meets ``abs_tol + rel_tol * |integral|``.
    ``tol.max_iter`` caps the number of panels.
    """
    if tol is None:
        tol = Tolerance(max_iter=2000)
    if not a < b:
        raise ValueError(f"integration requires a < b, got [{a}, {b}]")

    val, err = _gk15(f, a, b)
    # heap of (-error, insertion counter, a, b, value, error)
    count = 0
    panels = [(-err, count, a, b, val, err)]
    total_val, total_err = val, err
    width_floor = 4 * np.finfo(float).eps * (abs(a) + abs(b) + 1.0)
    while total_err > tol.abs_tol + tol.rel_tol * abs(total_val):
        if len(panels) >= tol.max_iter:
            raise ConvergenceError(
                f"quadrature did not converge within {tol.max_iter} panels "
                f"(estimate {total_val!r}, error bound {total_err:.3e})",
                best=total_val, bound=total_err)
        _, _, pa, pb, pval, perr = heapq.heappop(panels)
        pm = 0.5 * (pa + pb)
        if pb - pa < width_floor:
            # refinement exhausted at machine resolution; accept the panel
            heapq.heappush(panels, (0.0, count + 1, pa, pb, pval, 0.0))
            count += 1
            total_err -= perr
            continue
        lv, le = _gk15(f, pa, pm)
        rv, re = _gk15(f, pm, pb)
        heapq.heappush(panels, (-le, count + 1, pa, pm, lv, le))
        heapq.heappush(panels, (-re, count + 2, pm, pb, rv, re))
        count += 2
        total_val += lv + rv - pval
        total_err += le + re - perr
    return total_val


def _mode_nodes(n: int, midpoints: bool = False) -> np.ndarray:
    # -pi/2 + pi j/n, j = 0..n-1 (or the midpoints), as an exact
    # half-integer times pi/n: nodes near 0 keep full relative precision
    return (np.arange(n) - (n - midpoints) / 2) * (np.pi / n)


def mode_mean(f: Callable[[np.ndarray], np.ndarray], n0: int,
              tol: Tolerance | None = None) -> float:
    """Mean of a vectorized pi-periodic f over one period, by the trapezoid rule.

    f maps an array of nodes to the array of its values. It is evaluated on
    the N equally spaced nodes -pi/2 + pi j/N of [-pi/2, pi/2), which carry
    full relative precision near 0; by periodicity the mean is that over
    [0, pi). If f is analytic in the strip |Im s| < eta, the error falls
    like e^(-2 eta N). Starting at N = n0, N doubles and the old nodes are
    reused: the new estimate is the mean of the old one and the mean over
    the midpoints. The finer estimate is returned once two agree to
    ``abs_tol + rel_tol * |est|``. ``tol.max_iter`` caps N; past it
    :class:`ConvergenceError` is raised.
    """
    if tol is None:
        tol = Tolerance(max_iter=1 << 14)
    if n0 < 1:
        raise ValueError(f"mode_mean needs n0 >= 1, got {n0}")
    n = n0
    # sum / n is np.mean's arithmetic without its per-call overhead
    est = float(f(_mode_nodes(n)).sum()) / n
    while 2 * n <= tol.max_iter:
        new = 0.5 * (est + float(f(_mode_nodes(n, midpoints=True)).sum()) / n)
        n *= 2
        if abs(new - est) <= tol.abs_tol + tol.rel_tol * abs(new):
            return new
        est = new
    raise ConvergenceError(
        f"mode mean did not converge within {tol.max_iter} nodes "
        f"(estimate {est!r} at N = {n})", best=est)


def solve_increasing(f: Callable[[float], float], target: float,
                     bracket: Bracket, tol: Tolerance | None = None) -> float:
    """Solve f(x) = target for f strictly increasing on the bracket.

    Bisection with secant acceleration; the bracket must straddle the
    target. Stops when |f(x) - target| <= abs_tol or the bracket width
    drops below rel_tol * |x|.
    """
    if tol is None:
        tol = Tolerance(max_iter=200)
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle the target: "
            f"f(lo)-target={flo:.3e}, f(hi)-target={fhi:.3e}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi

    x, fx = hi, fhi
    x_prev, fx_prev = lo, flo
    for _ in range(tol.max_iter):
        # secant proposal, safeguarded to land strictly inside the bracket
        trial = None
        if fx != fx_prev:
            s = x - fx * (x - x_prev) / (fx - fx_prev)
            gap = hi - lo
            if lo + 0.01 * gap < s < hi - 0.01 * gap:
                trial = s
        if trial is None:
            trial = 0.5 * (lo + hi)
        ft = f(trial) - target
        x_prev, fx_prev = x, fx
        x, fx = trial, ft
        if ft <= 0:
            lo = trial
        else:
            hi = trial
        if abs(ft) <= tol.abs_tol or (hi - lo) <= tol.rel_tol * abs(trial):
            return trial
        if (hi - lo) <= 4 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0):
            return 0.5 * (lo + hi)  # machine-resolution bracket
    raise ConvergenceError(
        f"root solve did not converge in {tol.max_iter} iterations "
        f"(x={x!r}, residual={fx:.3e})", best=x)


def _clamp(x, lower, upper):
    if lower is not None:
        x = np.maximum(x, lower)
    if upper is not None:
        x = np.minimum(x, upper)
    return x


def _nelder_mead(f, x0, lower, upper, fatol, frtol, xatol, max_iter, step):
    """Projected Nelder-Mead. Returns (x, fx, converged).

    Candidates are clamped onto the box before evaluation. Uses the
    dimension-adaptive expansion/contraction coefficients, which behave
    better for d >= 4.
    """
    d = len(x0)
    alpha = 1.0
    gamma = 1.0 + 2.0 / d
    beta = 0.75 - 1.0 / (2.0 * d)
    sigma = 1.0 - 1.0 / d

    x0 = _clamp(np.asarray(x0, dtype=float), lower, upper)
    simplex = [x0]
    for i in range(d):
        v = x0.copy()
        step_i = step[i] if np.ndim(step) else step
        v[i] += step_i
        v = _clamp(v, lower, upper)
        if np.allclose(v, x0):
            v = x0.copy()
            v[i] -= step_i
            v = _clamp(v, lower, upper)
        simplex.append(v)
    fs = [f(v) for v in simplex]

    for _ in range(max_iter):
        order = np.argsort(fs, kind="stable")
        simplex = [simplex[i] for i in order]
        fs = [fs[i] for i in order]
        fbest, fworst = fs[0], fs[-1]
        spread = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        if fworst - fbest <= fatol + frtol * abs(fbest) and spread <= xatol:
            return simplex[0], fbest, True

        centroid = np.mean(simplex[:-1], axis=0)
        xr = _clamp(centroid + alpha * (centroid - simplex[-1]), lower, upper)
        fr = f(xr)
        if fr < fs[0]:
            xe = _clamp(centroid + gamma * (xr - centroid), lower, upper)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fs[-1] = xe, fe
            else:
                simplex[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            simplex[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = _clamp(centroid + beta * (xr - centroid), lower, upper)
            else:
                xc = _clamp(centroid + beta * (simplex[-1] - centroid), lower, upper)
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                simplex[-1], fs[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    simplex[i] = _clamp(simplex[0] + sigma * (simplex[i] - simplex[0]),
                                        lower, upper)
                    fs[i] = f(simplex[i])
    order = np.argsort(fs, kind="stable")
    return simplex[order[0]], fs[order[0]], False


def minimize_box(f: Callable[[np.ndarray], float], init: Sequence[float],
                 lower_bounds: Sequence[float] | None = None,
                 tol: Tolerance | None = None, *,
                 upper_bounds: Sequence[float] | None = None,
                 initial_step: Sequence[float] | float | None = None):
    """Minimize f over a box with a projected derivative-free simplex.

    Returns ``(point, value)``. Raises :class:`ConvergenceError` (carrying
    the best point found) if the iteration budget runs out first.
    """
    init = np.asarray(init, dtype=float)
    d = init.size
    if tol is None:
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-12, max_iter=200 * d)
    lower = None if lower_bounds is None else np.asarray(lower_bounds, dtype=float)
    upper = None if upper_bounds is None else np.asarray(upper_bounds, dtype=float)
    if initial_step is None:
        initial_step = 0.1 * (1.0 + np.abs(init))
    xatol = max(math.sqrt(tol.abs_tol) * 1e-2, 1e-12)
    x, fx, ok = _nelder_mead(f, init, lower, upper, tol.abs_tol, tol.rel_tol,
                             xatol, tol.max_iter, initial_step)
    if not ok:
        raise ConvergenceError(
            f"simplex search did not converge in {tol.max_iter} iterations",
            best=(x, fx))
    return x, fx


# first primes, for the Kronecker (sqrt-prime) lattice used by multistart
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89)


def lattice_points(n: int, d: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform points in [0,1)^d: the additive sqrt-prime lattice.

    Deterministic; the seed only shifts the lattice phase.
    """
    alpha = np.sqrt(np.array(_PRIMES[:d], dtype=float))
    shift = np.modf(0.5 + seed * np.sqrt(np.array(_PRIMES[d:2 * d], dtype=float)))[0]
    j = np.arange(1, n + 1)[:, None]
    return np.modf(shift + j * alpha)[0]


def minimize_multistart(f: Callable[[np.ndarray], float],
                        box: Sequence[tuple[float, float]], n_starts: int,
                        tol: Tolerance | None = None, seed: int = 0):
    """Global search: :func:`_polished_descent` from lattice start points.

    The ``n_starts`` points of :func:`lattice_points` are mapped onto the
    box, each with an initial simplex step of a fifth of the box. Returns
    the best ``(point, value)``; deterministic for a given seed. Any
    exception from the objective propagates at once; a run that exhausts
    its iterations contributes its best point instead.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    lower, upper = np.array(box, dtype=float).T
    d = lower.size
    if tol is None:
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-12, max_iter=200 * d)
    starts = lower + (upper - lower) * lattice_points(n_starts, d, seed)
    return _polished_descent(f, list(starts), lower, upper, tol, 0.2 * (upper - lower))


def _polished_descent(f, starts, lower, upper, tol, step):
    """Best simplex minimum over explicit starts, then restart-polished.

    The engine behind :func:`minimize_multistart` and the dimer
    minimizers. ``step`` is one initial simplex step for every start or a
    list with one per start. The best point is restarted with a fresh
    simplex of relative size 1e-6, at most 3 times, until the value stops
    improving by 1e-15: near a phase boundary the landscape is quartically
    flat and a first run can stall short of the minimum. A run that
    exhausts its iterations contributes its best point; any other exception
    from the objective propagates.
    """
    best = None
    for x0, st in zip(starts, step if isinstance(step, list) else [step] * len(starts)):
        try:
            x, fx = minimize_box(f, x0, lower, tol, upper_bounds=upper,
                                 initial_step=st)
        except ConvergenceError as err:
            if not (isinstance(err.best, tuple) and len(err.best) == 2):
                raise
            x, fx = err.best
        if best is None or fx < best[1]:
            best = (x, fx)
    x, fx = best
    for _ in range(3):
        try:
            xp, fp = minimize_box(f, x, lower, tol, upper_bounds=upper,
                                  initial_step=1e-6 * (1.0 + np.abs(x)))
        except ConvergenceError as err:
            if not (isinstance(err.best, tuple) and len(err.best) == 2):
                raise
            xp, fp = err.best
        if fp >= fx - 1e-15:
            if fp < fx:
                x, fx = xp, fp
            break
        x, fx = xp, fp
    return x, fx


def eigenvalues_symmetric(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, by LAPACK's eigvalsh.

    Raises ValueError unless M is square, finite and symmetric to within
    1e-12 * max(1, ||M||_F); the mean of M and its transpose is what gets
    diagonalized.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    norm = float(np.linalg.norm(A))
    asym = float(np.max(np.abs(A - A.T), initial=0.0))
    if asym > 1e-12 * max(norm, 1.0):
        raise ValueError(f"matrix is not symmetric: max|M - M^T| = {asym:.3e}")
    return np.linalg.eigvalsh(0.5 * (A + A.T))
