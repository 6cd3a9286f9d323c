"""Numerical primitives against closed forms and library oracles."""

import math

import numpy as np
import pytest

from peierls.numerics import (Bracket, ConvergenceError, Tolerance,
                              eigenvalues_symmetric, integrate_adaptive,
                              lattice_points, minimize_box,
                              minimize_multistart, mode_mean,
                              solve_increasing)

TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=2000)


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1e-3)
        with pytest.raises(ValueError):
            Tolerance(max_iter=0)

    def test_bracket_order(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 2.0)


class TestIntegrate:
    def test_linear_exact(self):
        assert integrate_adaptive(lambda s: s, 0.0, 1.0, TOL) == pytest.approx(0.5, abs=1e-13)

    def test_cosine(self):
        val = integrate_adaptive(math.cos, 0.0, math.pi / 2, TOL)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_near_singular_arcsin(self):
        # antiderivative arcsin as the oracle
        b = 1.0 - 1e-12
        val = integrate_adaptive(lambda u: 1.0 / math.sqrt(1.0 - u * u), 0.0, b,
                                 Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_iter=4000))
        assert val == pytest.approx(math.asin(b), abs=1e-7)
        assert val == pytest.approx(math.pi / 2, abs=1e-5)

    def test_split_additivity(self):
        rng = np.random.default_rng(11)
        f = lambda s: math.exp(-s) * math.sin(3 * s)
        a, b = 0.0, 2.0
        whole = integrate_adaptive(f, a, b, TOL)
        for c in rng.uniform(a + 0.1, b - 0.1, size=5):
            parts = integrate_adaptive(f, a, float(c), TOL) + integrate_adaptive(f, float(c), b, TOL)
            assert abs(whole - parts) <= 2 * (TOL.abs_tol + TOL.rel_tol * abs(whole)) + 1e-14

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.cos, 1.0, 0.0, TOL)

    def test_panel_budget_error_carries_estimate(self):
        hard = lambda s: math.sin(1.0 / (s + 1e-6))
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(hard, 0.0, 1.0, Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=3))
        assert err.value.best is not None
        assert err.value.bound > 0


class TestModeMean:
    @staticmethod
    def _recording(f):
        # f plus the node-array sizes it was called with
        sizes = []

        def g(s):
            sizes.append(s.size)
            return f(s)
        return g, sizes

    def test_trig_polynomial_exact_at_start(self):
        # N nodes integrate e^(2iks) exactly for |k| < N: the first estimate
        # is exact, so one doubling confirms it
        f, sizes = self._recording(
            lambda s: 1.5 + 0.3 * np.cos(2 * s) - 0.7 * np.sin(6 * s) + 0.2 * np.cos(14 * s))
        val = mode_mean(f, 8, TOL)
        assert val == pytest.approx(1.5, abs=1e-15)
        assert sizes == [8, 8]

    def test_doublings_predicted_by_strip_width(self):
        # mean 1/(a - cos 2s) = 1/sqrt(a^2 - 1); the poles at cos 2s = a lie
        # eta = acosh(a)/2 off the real axis, and the error on N nodes is
        # 2 e^(-2 eta N) / (sqrt(a^2 - 1) (1 - e^(-2 eta N)))
        a, n0 = 1.25, 4
        exact = 1.0 / math.sqrt(a * a - 1.0)
        eta = 0.5 * math.acosh(a)
        err = lambda n: 2.0 * exact * math.exp(-2 * eta * n) / (1 - math.exp(-2 * eta * n))
        n = n0
        while err(n) > TOL.abs_tol + TOL.rel_tol * exact:
            n *= 2
        f, sizes = self._recording(lambda s: 1.0 / (a - np.cos(2 * s)))
        val = mode_mean(f, n0, Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=1024))
        assert val == pytest.approx(exact, rel=1e-15)
        # the estimate at n is the first to pass; the finer one is returned
        assert sizes == [n0] + [n0 * 2 ** k for k in range(int(math.log2(n // n0)) + 1)]
        assert n == 64

    def test_node_cap_raises(self):
        a = 1.25
        with pytest.raises(ConvergenceError) as err:
            mode_mean(lambda s: 1.0 / (a - np.cos(2 * s)), 4,
                      Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=32))
        assert err.value.best == pytest.approx(1.0 / math.sqrt(a * a - 1.0), rel=1e-6)

    def test_nan_never_converges(self):
        with pytest.raises(ConvergenceError):
            mode_mean(lambda s: np.full_like(s, np.nan), 8, TOL)


class TestSolveIncreasing:
    def test_identity(self):
        x = solve_increasing(lambda t: t, 3.0, Bracket(0.0, 10.0), TOL)
        assert x == pytest.approx(3.0, abs=1e-10)

    def test_tanh_inverse(self):
        x = solve_increasing(math.tanh, 0.5, Bracket(0.0, 5.0), TOL)
        assert x == pytest.approx(math.atanh(0.5), abs=1e-10)

    def test_cube_root(self):
        x = solve_increasing(lambda t: t ** 3, 8.0, Bracket(0.0, 3.0), TOL)
        assert x == pytest.approx(2.0, abs=1e-10)

    def test_monotone_consistency(self):
        f = lambda t: t + math.sin(t) / 2
        target = 2.3
        x = solve_increasing(f, target, Bracket(0.0, 5.0), TOL)
        eps = 10 * (TOL.abs_tol + TOL.rel_tol)
        assert f(x - eps) < target < f(x + eps)

    def test_bracket_must_straddle(self):
        with pytest.raises(ValueError):
            solve_increasing(lambda t: t, 20.0, Bracket(0.0, 10.0), TOL)


class TestMinimizeBox:
    def test_quadratic_bowl(self):
        x, val = minimize_box(lambda z: (z[0] - 1) ** 2 + z[1] ** 2,
                              [2.0, 1.0], [0.0, 0.0])
        assert np.allclose(x, [1.0, 0.0], atol=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_shifted_bowl(self):
        x, val = minimize_box(lambda z: (z[0] - 1) ** 2 + (z[1] - 0.3) ** 2,
                              [0.5, 0.5], [0.0, 0.0])
        assert np.allclose(x, [1.0, 0.3], atol=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_dimerized_ground_state_beats_uniform(self):
        # 2D search on the zero-temperature energy must beat the best
        # 1-periodic value -4/pi - 8/(pi^2 mu) and pick up a nonzero delta
        from peierls.zero_temperature import g_zero
        from peierls.finite_chain import DimerState

        def f(z):
            W, d = max(z[0], 0.0), max(z[1], 0.0)
            W, d = max(W, d), min(W, d)
            return g_zero(DimerState(W=W, delta=d), 2.0)

        x, val = minimize_box(f, [1.0, 0.5], [0.0, 0.0],
                              Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=800))
        f0_per = -4 / math.pi - 8 / (math.pi ** 2 * 2.0)
        assert x[1] > 0.05
        assert val < f0_per

    def test_budget_exhaustion_reports_best(self):
        with pytest.raises(ConvergenceError) as err:
            minimize_box(lambda z: (z[0] - 1) ** 2, [50.0], [0.0],
                         Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=3))
        x, fx = err.value.best
        assert fx < (50.0 - 1) ** 2


class TestMultistart:
    def test_cosine_global(self):
        x, val = minimize_multistart(lambda z: math.cos(3 * z[0]), [(0.0, 2.0)], 8)
        assert val == pytest.approx(-1.0, abs=1e-10)
        assert x[0] == pytest.approx(math.pi / 3, abs=1e-4)

    def test_double_well(self):
        x, val = minimize_multistart(lambda z: (z[0] ** 2 - 1) ** 2, [(-2.0, 2.0)], 4)
        assert val == pytest.approx(0.0, abs=1e-10)
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-4)

    def test_beats_single_starts(self):
        f = lambda z: math.cos(3 * z[0]) + 0.1 * z[0]
        box = [(0.0, 4.0)]
        _, best = minimize_multistart(f, box, 8)
        for x0 in (0.1, 1.0, 3.5):
            try:
                _, val = minimize_box(f, [x0], [0.0], upper_bounds=[4.0])
            except ConvergenceError as err:
                _, val = err.best
            assert best <= val + 1e-12

    def test_ring_minimizer_is_2_periodic(self):
        # 4-site ring searched over the full hopping vector collapses onto
        # the two-parameter alternating pattern
        from peierls.finite_chain import (HoppingConfig, ModelParams,
                                          chain_free_energy,
                                          minimize_dimer_finite)
        p = ModelParams(mu=1.0, theta=0.05, L=4)
        f = lambda t: chain_free_energy(HoppingConfig(t), p)
        x, val = minimize_multistart(f, [(0.1, 3.0)] * 4, 3,
                                     Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=1600))
        _, per_atom = minimize_dimer_finite(p)
        assert val / 4 == pytest.approx(per_atom, abs=1e-6)
        assert abs(x[0] - x[2]) < 1e-4 and abs(x[1] - x[3]) < 1e-4

    @pytest.mark.parametrize("exc", [ValueError("objective failed"),
                                     ConvergenceError("inner solve", best=0.5)])
    def test_objective_errors_propagate(self, exc):
        # only a simplex budget exhaustion (best = (x, fx)) is absorbed
        def f(z):
            raise exc
        with pytest.raises(type(exc)) as err:
            minimize_multistart(f, [(0.0, 2.0)], 3)
        assert err.value is exc

    def test_seed_determinism(self):
        f = lambda z: (z[0] - 0.7) ** 2
        a = minimize_multistart(f, [(0.0, 2.0)], 5, seed=3)
        b = minimize_multistart(f, [(0.0, 2.0)], 5, seed=3)
        assert a[0][0] == b[0][0] and a[1] == b[1]

    def test_lattice_in_unit_box(self):
        pts = lattice_points(64, 3, seed=1)
        assert pts.shape == (64, 3)
        assert np.all(pts >= 0) and np.all(pts < 1)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues_symmetric(np.eye(3)), [1, 1, 1])

    def test_diagonal_sorted(self):
        assert np.allclose(eigenvalues_symmetric(np.diag([3.0, -1.0, 2.0])), [-1, 2, 3])

    def test_uniform_ring_circulant(self):
        from peierls.finite_chain import HoppingConfig, build_hopping_matrix
        for L in (4, 64, 128):
            T = build_hopping_matrix(HoppingConfig(np.ones(L)))
            want = np.sort(2 * np.cos(2 * np.pi * np.arange(L) / L))
            assert np.allclose(eigenvalues_symmetric(T), want, atol=1e-12)

    def test_trace_and_frobenius_invariants(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 8, 17, 32, 64, 128):
            M = rng.standard_normal((n, n))
            M = M + M.T
            lam = eigenvalues_symmetric(M)
            assert np.all(np.diff(lam) >= -1e-12)
            tr = np.trace(M)
            assert abs(lam.sum() - tr) <= 1e-8 * max(1.0, abs(tr))
            fro2 = np.sum(M * M)
            assert abs(np.sum(lam ** 2) - fro2) <= 1e-8 * fro2

    def test_matches_lapack(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((12, 12))
        M = M + M.T
        assert np.allclose(eigenvalues_symmetric(M), np.linalg.eigvalsh(M), atol=1e-10)

    def test_rejects_asymmetric(self):
        M = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            eigenvalues_symmetric(M)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # a symmetric NaN slips past the symmetry bound (nan > b is False)
        M = np.eye(3)
        M[0, 2] = M[2, 0] = bad
        with pytest.raises(ValueError):
            eigenvalues_symmetric(M)

    def test_shape_check_and_trivial_matrices(self):
        for M in (np.zeros((2, 3)), np.ones(3)):
            with pytest.raises(ValueError):
                eigenvalues_symmetric(M)
        assert eigenvalues_symmetric([[-2.5]]).tolist() == [-2.5]
        assert eigenvalues_symmetric(np.zeros((5, 5))).tolist() == [0.0] * 5
