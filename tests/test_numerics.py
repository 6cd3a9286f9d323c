"""Numerical primitives against closed forms and library oracles."""

import math

import numpy as np
import pytest

from peierls import numerics
from peierls.numerics import ConvergenceError, lattice_points, minimize_box, mode_mean
from peierls.thermodynamic import J_thermo, theta_critical_thermo

# the absolute tolerance of the infinite ring's integrals, for the mode mean
# and the root solve
TOL = 1e-12


def _tanh_over(r):
    # tanh(r)/r, 1 at r = 0: h'(r^2) of h(y) = 2 ln(2 cosh sqrt(y))
    return np.divide(np.tanh(r), r, out=np.ones_like(r), where=r != 0)


def _two_call_mode_mean(f, eta, abs_tol):
    # the mode mean with the start level and its first doubling in two
    # calls, on freshly mapped nodes and their sines and cosines: the
    # reference the cached levels must match
    p, n = numerics._node_map(eta)

    def g(u):
        t, dt = numerics._map_nodes(u, p)
        return f(np.sin(t), np.cos(t)) * dt
    s = g(numerics._mode_nodes(n)).sum(axis=-1)
    rows = s.ndim
    est = s / n if rows else float(s) / n
    while 2 * n <= numerics._MEAN_MAX_NODES:
        s = g(numerics._mode_nodes(n, midpoints=True)).sum(axis=-1)
        new = 0.5 * (est + (s / n if rows else float(s) / n))
        n *= 2
        close = abs(new - est) <= abs_tol + numerics._MEAN_REL_TOL * abs(new)
        if close.all() if rows else close:
            return new.tolist() if rows else new
        est = new
    raise ConvergenceError("the reference mode mean did not converge")


def _argmax_node_map(eta):
    # the node map by brute force, independent of _node_map's walk: the odd
    # p < 400 whose mapped strip is widest, p = 1 (no map) counting as eta
    def width(p):
        if p == 1:
            return eta
        s = math.sin(math.pi / (2 * p))
        return min(eta ** (1.0 / p) * s, 0.5 * math.atanh(s))

    p = max(range(1, 400, 2), key=width)
    return p, numerics._start_nodes(width(p))


@pytest.mark.parametrize("abs_tol", [-1e-3, math.nan])
def test_engines_reject_bad_abs_tol(abs_tol):
    # a negative or NaN tolerance is refused before f is evaluated
    def f(*args):
        raise AssertionError("evaluated")
    with pytest.raises(ValueError, match="abs_tol"):
        mode_mean(f, math.inf, abs_tol)


class TestModeMean:
    @staticmethod
    def _recording(f):
        # f plus the node-array sizes it was called with
        sizes = []

        def g(sn, cs):
            sizes.append(sn.size)
            return f(sn, cs)
        return g, sizes

    def test_trig_polynomial_exact_at_start(self):
        # N nodes integrate e^(2iks) exactly for |k| < N: the first estimate
        # is exact, so one doubling confirms it. An entire f has eta = inf
        # and starts at the smallest N, 8: one call on the 8 start nodes and
        # their 8 midpoints
        def trig(sn, cs):  # cos 2kt and sin 2kt from e^(2ikt) = (cos t + i sin t)^(2k)
            z = cs + 1j * sn
            return 1.5 + 0.3 * (z ** 2).real - 0.7 * (z ** 6).imag + 0.2 * (z ** 14).real
        f, sizes = self._recording(trig)
        val = mode_mean(f, math.inf, TOL)
        assert val == pytest.approx(1.5, abs=1e-15)
        assert sizes == [16]

    def test_doublings_predicted_by_strip_width(self):
        # mean 1/(a - cos 2s) = 1/sqrt(a^2 - 1); the poles at cos 2s = a lie
        # eta = acosh(a)/2 off the real axis, and the error on N nodes is
        # 2 e^(-2 eta N) / (sqrt(a^2 - 1) (1 - e^(-2 eta N)))
        a = 1.25
        exact = 1.0 / math.sqrt(a * a - 1.0)
        eta = 0.5 * math.acosh(a)
        err = lambda n: 2.0 * exact * math.exp(-2 * eta * n) / (1 - math.exp(-2 * eta * n))
        f = lambda sn, cs: 1.0 / (a - (cs - sn) * (cs + sn))
        # the true eta starts at the power of two >= 15/eta, verified by one
        # doubling: a single call on the 64 start nodes and their midpoints
        g, sizes = self._recording(f)
        assert mode_mean(g, eta, TOL) == pytest.approx(exact, rel=1e-15)
        assert sizes == [128]
        # an eta claimed too wide (15/8) starts at N = 8, and N doubles until
        # the error the true eta predicts passes; the finer estimate is
        # returned. Each doubling after the first is a call on the midpoints
        n0, n = 8, 8
        while err(n) > TOL + numerics._MEAN_REL_TOL * exact:
            n *= 2
        g, sizes = self._recording(f)
        assert mode_mean(g, 15.0 / n0, TOL) == pytest.approx(exact, rel=1e-15)
        assert sizes == [2 * n0] + [n0 * 2 ** k for k in range(1, int(math.log2(n // n0)) + 1)]
        assert n == 64

    def test_band_centre_layer_closed_form(self):
        # mean 1/(eps + 2 sin^2 t) = mean 1/(1 + eps - cos 2t) = 1/sqrt(eps (2 + eps)):
        # a layer of width ~sqrt(eps) at t = 0, with eta = acosh(1 + eps)/2.
        # Unmapped, N0 >= 15/eta would be 2^15 and 2^25 nodes; the mapped
        # nodes start below 1024, and one doubling verifies the start: one
        # call on the start nodes and their midpoints
        for eps in (1e-6, 1e-12):
            f, sizes = self._recording(lambda sn, cs: 1.0 / (eps + 2.0 * sn ** 2))
            val = mode_mean(f, 0.5 * math.acosh(1.0 + eps), TOL)
            assert val == pytest.approx(1.0 / math.sqrt(eps * (2.0 + eps)), rel=1e-12)
            assert len(sizes) == 1 and sizes[0] // 2 <= 1024

    def test_shared_start_call_is_bit_identical(self):
        # one call on the cached start nodes and their midpoints sums the
        # same nodes in the same order as two calls: 1-D and a (3, N) stack,
        # at p = 1 and p > 1, converging at the first doubling or later
        a, eps, x = 1.25, 1e-6, 1e3
        cos2 = lambda sn, cs: (cs - sn) * (cs + sn)
        pole = lambda sn, cs: 1.0 / (a - cos2(sn, cs))
        stack = lambda sn, cs: np.stack((pole(sn, cs), cos2(sn, cs) * pole(sn, cs),
                                         sn ** 2 * pole(sn, cs)))
        band = lambda sn, cs: 1.0 / (eps + 2.0 * sn ** 2)
        tanh = lambda sn, cs: x * _tanh_over(np.abs(x * sn)) * cos2(sn, cs)
        cases = [(pole, 0.5 * math.acosh(a)), (pole, 15.0 / 8),
                 (stack, 0.5 * math.acosh(a)), (stack, 15.0 / 8),
                 (band, 0.5 * math.acosh(1.0 + eps)),
                 (lambda sn, cs: np.stack((band(sn, cs), cs ** 2 * band(sn, cs))),
                  0.5 * math.acosh(1.0 + eps)),
                 (tanh, math.asinh(0.5 * math.pi / x))]
        # the premise: the first case starts unmapped (p = 1), the last mapped
        assert numerics._node_map(cases[0][1])[0] == 1 < numerics._node_map(cases[-1][1])[0]
        for f, eta in cases:
            assert mode_mean(f, eta, TOL) == _two_call_mode_mean(f, eta, TOL)

    def test_start_nodes_are_read_only(self):
        # the cached start nodes (here p = 1) are shared by every call:
        # writing into their sines or cosines raises
        def f(sn, cs):
            sn *= 2.0
            return cs
        with pytest.raises(ValueError):
            mode_mean(f, math.inf, TOL)

    def test_node_map_matches_the_loops(self):
        # a log grid from the x of mu = 200 (eta ~ 6e-69) to past the widest
        # p = 3 strip, atanh(1/2)/2, which is where the map starts to serve
        for eta in np.logspace(-70, 1, 1001):
            assert numerics._node_map(float(eta)) == _argmax_node_map(float(eta)), eta
        assert numerics._node_map(0.27)[0] == 3
        assert numerics._node_map(0.28)[0] == 1

    def test_mapped_start_is_read_only(self):
        # the cached mapped nodes and weights are shared by every call, the
        # unmapped (p = 1) start's and a later level's too
        for n, p, start in ((256, 5, True), (64, 1, True), (512, 5, False)):
            for arr in numerics._mapped_nodes(n, p, start):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

        def f(sn, cs):
            cs *= 2.0
            return sn
        eta = 1e-6
        assert numerics._node_map(eta)[0] > 1  # the premise: mapped nodes
        with pytest.raises(ValueError):
            mode_mean(f, eta, TOL)

    def test_mapped_start_cache_is_bounded(self, monkeypatch):
        # J_thermo at the critical x of mu = 0.5..200 maps its nodes under
        # more distinct levels, starts (p, N0) and later doublings (p, N),
        # than the cache keeps; the cache stays at its bound
        xs = [theta_critical_thermo(0.5 * k).x for k in range(1, 401)]
        keys, mapped = set(), numerics._mapped_nodes

        def recording(*key):
            keys.add(key)
            return mapped(*key)
        monkeypatch.setattr(numerics, "_mapped_nodes", recording)
        for x in xs:
            J_thermo(x)
        info = mapped.cache_info()
        assert info.maxsize == numerics._MAPPED_CACHE <= 32
        assert len(keys) > info.maxsize >= info.currsize
        assert {start for _, _, start in keys} == {True, False}

    def test_warm_mean_maps_no_nodes(self, monkeypatch):
        # once its levels are cached, a mean that needs two doublings or more
        # maps no nodes, at p = 1 (an eta claimed too wide) and at p > 1
        eps = 1e-6
        cases = [(lambda sn, cs: 1.0 / (1.25 - (cs - sn) * (cs + sn)), 15.0 / 8),
                 (lambda sn, cs: 1.0 / (eps + 2.0 * sn ** 2), 8 * math.acosh(1.0 + eps))]
        assert [numerics._node_map(eta)[0] > 1 for _, eta in cases] == [False, True]
        warm = []
        for f, eta in cases:
            g, sizes = self._recording(f)
            warm.append(mode_mean(g, eta, TOL))
            assert len(sizes) >= 2  # the premise: the start call, then a later doubling
        maps = []
        map_nodes = numerics._map_nodes
        monkeypatch.setattr(numerics, "_map_nodes",
                            lambda u, p: maps.append(p) or map_nodes(u, p))
        assert [mode_mean(f, eta, TOL) for f, eta in cases] == warm
        assert maps == []

    def test_node_cap_raises(self, monkeypatch):
        a = 1.25
        monkeypatch.setattr(numerics, "_MEAN_MAX_NODES", 32)
        with pytest.raises(ConvergenceError) as err:
            mode_mean(lambda sn, cs: 1.0 / (a - (cs - sn) * (cs + sn)), 15.0 / 8, TOL)
        assert err.value.best == pytest.approx(1.0 / math.sqrt(a * a - 1.0), rel=1e-6)
        # a start that leaves no room for a doubling raises before evaluating
        monkeypatch.setattr(numerics, "_MEAN_MAX_NODES", 64)
        f, sizes = self._recording(lambda sn, cs: 1.0 / (a - (cs - sn) * (cs + sn)))
        with pytest.raises(ConvergenceError) as err:
            mode_mean(f, 0.5 * math.acosh(a), TOL)
        assert sizes == [] and err.value.best is None

    def test_strip_width_must_be_positive(self):
        for eta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                mode_mean(lambda sn, cs: sn, eta, TOL)

    def test_nan_never_converges(self):
        # NaN estimates never agree: N doubles up to the cap, then it raises
        f, sizes = self._recording(lambda sn, cs: np.full_like(sn, np.nan))
        with pytest.raises(ConvergenceError):
            mode_mean(f, math.inf, TOL)
        assert sizes[-1] == numerics._MEAN_MAX_NODES // 2

    def test_one_dimensional_mean_is_python_float(self):
        val = mode_mean(lambda sn, cs: 1.0 + (cs - sn) * (cs + sn), math.inf, TOL)
        assert type(val) is float and val == 1.0

    def test_stack_rows_equal_scalar_calls(self):
        # rows that converge at the same N come back bit for bit as their
        # scalar calls, on unmapped (a = 1.25) and mapped (eps = 1e-6) nodes
        a, eps = 1.25, 1e-6
        cos2 = lambda sn, cs: (cs - sn) * (cs + sn)
        unmapped = (lambda sn, cs: 1.0 / (a - cos2(sn, cs)),
                    lambda sn, cs: cos2(sn, cs) / (a - cos2(sn, cs)),
                    lambda sn, cs: sn ** 2 / (a - cos2(sn, cs)))
        mapped = (lambda sn, cs: 1.0 / (eps + 2.0 * sn ** 2),
                  lambda sn, cs: cos2(sn, cs) / (eps + 2.0 * sn ** 2),
                  lambda sn, cs: cs ** 2 / (eps + 2.0 * sn ** 2))
        cases = ((unmapped, 0.5 * math.acosh(a)), (mapped, 0.5 * math.acosh(1.0 + eps)))
        for fs, eta in cases:
            scalar, sizes = [], []
            for f in fs:
                g, n = self._recording(f)
                scalar.append(mode_mean(g, eta, TOL))
                sizes.append(n)
            assert sizes[1:] == sizes[:-1]  # the premise: the same N for each row
            stacked = mode_mean(lambda sn, cs: np.stack([f(sn, cs) for f in fs]), eta, TOL)
            assert type(stacked) is list and all(type(v) is float for v in stacked)
            assert stacked == scalar

    def test_stack_rows_meet_own_tolerance(self):
        # mean 1/(c - cos 2s) = 1/sqrt(c^2 - 1): c = 1.01 needs 256 nodes from
        # a start of 8, c = 1.25 (scaled by 1e8, where the relative target
        # rules) only 64; the stack runs until both meet their tolerance
        rows = ((1.01, 1.0), (1.25, 1e8))
        f = lambda sn, cs: np.stack([scale / (c - (cs - sn) * (cs + sn)) for c, scale in rows])
        g, sizes = self._recording(f)
        vals = mode_mean(g, 15.0 / 8, TOL)
        assert sizes[-1] == 256
        for val, (c, scale) in zip(vals, rows):
            exact = scale / math.sqrt(c * c - 1.0)
            assert abs(val - exact) <= TOL + numerics._MEAN_REL_TOL * exact

    def test_nan_row_never_converges(self):
        f = lambda sn, cs: np.stack((np.ones_like(sn), np.full_like(sn, np.nan)))
        with pytest.raises(ConvergenceError) as err:
            mode_mean(f, math.inf, TOL)
        assert err.value.best[0] == 1.0


class TestSolveIncreasing:
    """numerics._newton_log on increasing residuals: Newton steps capped at
    ln 2, bisection where a step leaves the bracket of the residuals' signs."""

    @staticmethod
    def _solve(f, df, target, u):
        # the root of f(u) = target and the points the solve evaluated
        calls = []

        def step(v):
            calls.append(v)
            return f(v) - target, df(v), None
        return numerics._newton_log(step, u)[0], calls

    def test_identity(self):
        x, _ = self._solve(lambda t: t, lambda t: 1.0, 3.0, 2.5)
        assert x == 3.0

    def test_tanh_inverse(self):
        # quadratic convergence: steps of 0.23, 2.1e-3, 2.2e-7 and 2.4e-8,
        # and the iterate after the first step below 3e-8 is returned
        x, calls = self._solve(math.tanh, lambda t: 1.0 / math.cosh(t) ** 2, 0.5, 0.3)
        assert x == pytest.approx(math.atanh(0.5), rel=1e-15)
        assert len(calls) == 5

    def test_cube_root(self):
        x, _ = self._solve(lambda t: t ** 3, lambda t: 3.0 * t * t, 8.0, 1.0)
        assert x == pytest.approx(2.0, rel=1e-15)

    def test_monotone_consistency(self):
        f = lambda t: t + math.sin(t) / 2
        target = 2.3
        x, _ = self._solve(f, lambda t: 1.0 + math.cos(t) / 2, target, 0.0)
        eps = 1e-14
        assert f(x - eps) < target < f(x + eps)

    def test_downward_walk(self):
        # an estimate 5 above the root of a line: each Newton step is capped
        # at ln 2 until the root is within reach, which the next step hits
        x, calls = self._solve(lambda t: t, lambda t: 1.0, -3.0, 2.0)
        assert x == -3.0
        walk = [2.0 - k * math.log(2.0) for k in range(8)]
        assert calls[:8] == pytest.approx(walk, abs=1e-14)
        assert calls[8:] == [-3.0]

    @pytest.mark.parametrize("target, u, root, evaluated", [
        (math.log(2.0), 0.0, math.log(2.0), 2),  # one step of ln 2 onto the root
        (0.0, 0.0, 0.0, 1),                      # on the estimate: no step
        (0.0, math.log(2.0), 0.0, 2),            # one step down onto the root
        (1e-13, 0.0, 1e-13, 2),                  # a step of 1e-13 is taken
    ])
    def test_root_on_bracket_end(self, target, u, root, evaluated):
        # a root on the estimate costs one evaluation; one a step lands on
        # exactly costs one more, which confirms it
        x, calls = self._solve(lambda t: t, lambda t: 1.0, target, u)
        assert x == root
        assert len(calls) == evaluated

    def test_overshoot_bisects(self):
        # the root of atan(100 u) from u = -0.5: a step capped at ln 2 crosses
        # it, and from there, where atan is flat, the Newton step of -5.7
        # lands below the bracket [-0.5, ln 2 - 0.5], so the next iterate
        # is the bracket's midpoint
        x, calls = self._solve(lambda t: math.atan(100.0 * t),
                               lambda t: 100.0 / (1.0 + (100.0 * t) ** 2), 0.0, -0.5)
        assert x == pytest.approx(0.0, abs=1e-15)
        lo, hi = -0.5, math.log(2.0) - 0.5
        assert calls[:3] == pytest.approx([lo, hi, 0.5 * (lo + hi)], abs=1e-15)

    def test_iteration_budget_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SOLVE_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            self._solve(math.tanh, lambda t: 1.0 / math.cosh(t) ** 2, 0.5, 0.3)
        assert 0.3 < err.value.best < 0.3 + math.log(2.0)

    def test_bad_input_ends(self):
        # a NaN residual, and a target that f never reaches, spend the budget
        # in steps of ln 2 (down for the NaN, which sets no lower end) and
        # raise with the last u
        for f, target, sign in ((lambda u: math.nan, 1.0, -1.0), (math.atan, 2.0, 1.0)):
            with pytest.raises(ConvergenceError) as err:
                self._solve(f, lambda t: 1.0 / (1.0 + t * t), target, 0.0)
            assert err.value.best == pytest.approx(sign * numerics._SOLVE_MAX_ITER * math.log(2.0))


class TestMinimizeBox:
    """The projected simplex on the orthant x >= 0."""

    def test_quadratic_bowl(self):
        x, val = minimize_box(lambda z: (z[0] - 1) ** 2 + z[1] ** 2,
                              [2.0, 1.0], [0.3, 0.2])
        assert np.allclose(x, [1.0, 0.0], atol=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_shifted_bowl(self):
        x, val = minimize_box(lambda z: (z[0] - 1) ** 2 + (z[1] - 0.3) ** 2,
                              [0.5, 0.5], [0.15, 0.15])
        assert np.allclose(x, [1.0, 0.3], atol=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_candidates_stay_in_the_orthant(self):
        seen = []

        def f(z):
            seen.append(z.min())
            return (z[0] + 1) ** 2 + (z[1] - 2) ** 2
        x, _ = minimize_box(f, [0.5, 1.0], [0.4, 0.4])
        assert min(seen) >= 0.0
        assert x[0] == 0.0 and x[1] == pytest.approx(2.0, abs=1e-5)

    def test_dimerized_ground_state_beats_uniform(self):
        # 2D search on the zero-temperature energy must beat the best
        # 1-periodic value -4/pi - 8/(pi^2 mu) and pick up a nonzero delta
        from peierls.zero_temperature import g_zero
        from peierls.finite_chain import DimerState

        def f(z):
            return g_zero(DimerState(W=max(z), delta=min(z)), 2.0)

        x, val = minimize_box(f, [1.0, 0.5], [0.2, 0.15])
        f0_per = -4 / math.pi - 8 / (math.pi ** 2 * 2.0)
        assert x[1] > 0.05
        assert val < f0_per

    def test_budget_exhaustion_reports_best(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SIMPLEX_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            minimize_box(lambda z: (z[0] - 1) ** 2, [50.0], [5.1])
        x, fx = err.value.best
        assert fx < (50.0 - 1) ** 2 and fx == (x[0] - 1) ** 2


class TestMultistart:
    """Lattice starts, and the full-ring search from them."""

    def test_ring_minimizer_is_2_periodic(self):
        # 4-site ring searched over the full hopping vector collapses onto
        # the two-parameter alternating pattern
        from peierls.finite_chain import (ModelParams, chain_free_energy,
                                          minimize_chain_full,
                                          minimize_dimer_finite)
        p = ModelParams(mu=1.0, theta=0.05, L=4)
        cfg = minimize_chain_full(p, n_starts=3)
        x = cfg.t
        _, per_atom = minimize_dimer_finite(p)
        assert chain_free_energy(cfg, p) / 4 == pytest.approx(per_atom, abs=1e-6)
        assert abs(x[0] - x[2]) < 1e-4 and abs(x[1] - x[3]) < 1e-4

    def test_lattice_in_unit_box(self):
        pts = lattice_points(64, 16)
        assert pts.shape == (64, 16)
        assert np.all(pts >= 0) and np.all(pts < 1)
