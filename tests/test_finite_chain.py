"""Finite even rings: matrices, energies, dimer reduction, critical lines."""

import math

import numpy as np
import pytest

from peierls.finite_chain import (CriticalPoint, DimerState, HoppingConfig,
                                  J_finite, ModelParams, build_hopping_matrix,
                                  chain_energy_zero, chain_free_energy,
                                  g_finite, minimize_chain_full,
                                  minimize_dimer_finite, mu_critical,
                                  theta_critical_finite)
from peierls.kernels import h_theta
from peierls.numerics import eigenvalues_symmetric

# independently solved reference values (Brent root of J + explicit sums,
# cross-checked against a 1e-15 scipy solve)
THETA_C_L8_MU2 = 0.320591933975
THETA_C_L8_MU1 = 0.729359530672
MU_C_10 = 0.6944271909999159


def ring(*t):
    return HoppingConfig(np.array(t, dtype=float))


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(mu=0.0, theta=0.1)
        with pytest.raises(ValueError):
            ModelParams(mu=1.0, theta=-0.1)
        with pytest.raises(ValueError):
            ModelParams(mu=1.0, theta=0.1, L=7)
        with pytest.raises(ValueError):
            ModelParams(mu=1.0, theta=0.1, L=2)

    def test_hopping_validation(self):
        with pytest.raises(ValueError):
            ring(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ring(1.0, -1.0, 1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ring(1.0, bad, 1.0, 1.0)

    def test_dimer_state(self):
        with pytest.raises(ValueError):
            DimerState(W=0.5, delta=0.6)
        with pytest.raises(ValueError):
            DimerState(W=1.0, delta=0.1, sign=2)
        s = DimerState(W=1.5, delta=0.5, sign=-1)
        t = s.hoppings(6).t
        assert np.allclose(sorted(t[:2]), [1.0, 2.0])
        assert np.allclose(t, np.roll(t, 2))

    def test_degenerate_dimer_has_no_hoppings(self):
        with pytest.raises(ValueError):
            DimerState(W=1.0, delta=1.0).hoppings(4)

    def test_critical_point_consistency(self):
        with pytest.raises(ValueError):
            CriticalPoint(x=2.0, W_star=1.5, theta_c=0.5)
        cp = CriticalPoint(x=3.0, W_star=1.5, theta_c=0.5)
        assert cp.W_star == pytest.approx(cp.x * cp.theta_c)


class TestHoppingMatrix:
    def test_uniform_ring_is_circulant(self):
        T = build_hopping_matrix(ring(1, 1, 1, 1))
        eigs = eigenvalues_symmetric(T)
        assert np.allclose(eigs, [-2, 0, 0, 2], atol=1e-12)

    def test_alternating_ring_spectrum(self):
        a, b = 0.7, 1.3
        T = build_hopping_matrix(ring(a, b, a, b))
        eigs2 = np.sort(eigenvalues_symmetric(T) ** 2)
        k = np.arange(1, 5)
        want = np.sort(a * a + b * b + 2 * a * b * np.cos(4 * k * np.pi / 4))
        assert np.allclose(eigs2, want, atol=1e-10)

    def test_trace_zero(self):
        rng = np.random.default_rng(3)
        for L in (4, 5, 8, 11):
            T = build_hopping_matrix(HoppingConfig(rng.uniform(0.2, 2.0, L)))
            assert np.trace(T) == 0.0
            assert np.allclose(T, T.T)

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(17)
        for L in (4, 6, 8, 12):
            T = build_hopping_matrix(HoppingConfig(rng.uniform(0.3, 2.0, L)))
            eigs = eigenvalues_symmetric(T)
            assert np.allclose(eigs, -eigs[::-1], atol=1e-8)


class TestChainEnergies:
    def test_uniform_free_energy_closed_form(self):
        p = ModelParams(mu=1.0, theta=0.5, L=4)
        val = chain_free_energy(ring(1, 1, 1, 1), p)
        want = -(2 * h_theta(4.0, 0.5) + 2 * h_theta(0.0, 0.5))
        assert val == pytest.approx(want, abs=1e-10)

    def test_matches_dimer_reduction_per_atom(self):
        rng = np.random.default_rng(23)
        for L in (4, 6, 8, 12, 32, 64, 128):
            W = float(rng.uniform(0.8, 1.6))
            d = float(rng.uniform(0.0, 0.5 * W))
            s = DimerState(W=W, delta=d)
            p = ModelParams(mu=1.7, theta=0.37, L=L)
            total = chain_free_energy(s.hoppings(L), p)
            assert total / L == pytest.approx(g_finite(s, p), abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(0.4, 1.8, 8)
        p = ModelParams(mu=2.0, theta=0.3, L=8)
        base = chain_free_energy(HoppingConfig(t), p)
        for k in range(1, 8):
            val = chain_free_energy(HoppingConfig(np.roll(t, k)), p)
            assert val == pytest.approx(base, abs=1e-12)

    def test_stiff_chain_dominated_by_distortion(self):
        eps = 1e-3
        L, mu = 6, 1e3
        p = ModelParams(mu=mu, theta=1.0, L=L)
        uniform = chain_free_energy(ring(*([1.0] * L)), p)
        stretched = chain_free_energy(ring(*([1.0 + eps] * L)), p)
        # electronic response is O(eps); the elastic term is mu/2 L eps^2
        assert stretched - uniform == pytest.approx(0.5 * mu * L * eps * eps, abs=L * 2 * eps)

    def test_zero_temperature_energy(self):
        assert chain_energy_zero(ring(1, 1, 1, 1), 1.0) == pytest.approx(-4.0, abs=1e-12)

    def test_homogeneous_scaling(self):
        W, mu, L = 1.3, 0.7, 8
        val = chain_energy_zero(ring(*([W] * L)), mu)
        band = W * np.sum(np.abs(2 * np.cos(2 * np.pi * np.arange(1, L + 1) / L)))
        assert val == pytest.approx(mu * L / 2 * (W - 1) ** 2 - band, abs=1e-10)

    def test_free_energy_approaches_ground_state(self):
        rng = np.random.default_rng(41)
        t = rng.uniform(0.5, 1.5, 6)
        zero = chain_energy_zero(HoppingConfig(t), 1.2)
        cold = chain_free_energy(HoppingConfig(t), ModelParams(mu=1.2, theta=1e-4, L=6))
        assert cold == pytest.approx(zero, abs=1e-4)

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError):
            chain_free_energy(ring(1, 1, 1, 1), ModelParams(mu=1.0, theta=0.0, L=4))


class TestGFinite:
    def test_uniform_mode_sum(self):
        p = ModelParams(mu=3.0, theta=0.5, L=8)
        val = g_finite(DimerState(W=1.0, delta=0.0), p)
        want = -np.mean([h_theta(4 * math.cos(2 * k * math.pi / 8) ** 2, 0.5)
                         for k in range(1, 9)])
        assert val == pytest.approx(want, abs=1e-12)

    def test_sign_flip_invariant(self):
        p = ModelParams(mu=2.0, theta=0.2, L=6)
        a = g_finite(DimerState(W=1.2, delta=0.3, sign=1), p)
        b = g_finite(DimerState(W=1.2, delta=0.3, sign=-1), p)
        assert a == b


class TestDimerMinimization:
    def test_hot_ring_is_uniform(self):
        state, _ = minimize_dimer_finite(ModelParams(mu=1.0, theta=2.0, L=8))
        assert state.delta == 0.0

    def test_cold_ring_dimerizes(self):
        state, _ = minimize_dimer_finite(ModelParams(mu=1.0, theta=0.01, L=8))
        assert state.delta > 0.01

    def test_stiff_short_ring_stays_uniform(self):
        state, _ = minimize_dimer_finite(ModelParams(mu=5.0, theta=0.01, L=6))
        assert state.delta == 0.0

    def test_reference_point(self):
        state, val = minimize_dimer_finite(ModelParams(mu=2.0, theta=0.05, L=8))
        assert state.W == pytest.approx(1.5966876965, abs=1e-6)
        assert state.delta == pytest.approx(0.3193357284, abs=1e-6)
        assert val == pytest.approx(-1.651387889741, abs=1e-9)

    def test_two_dimer_signs_same_energy(self):
        for L in (4, 8):
            p = ModelParams(mu=1.0, theta=0.05, L=L)
            state, _ = minimize_dimer_finite(p)
            if state.delta == 0.0:
                continue
            plus = chain_free_energy(DimerState(state.W, state.delta, 1).hoppings(L), p)
            minus = chain_free_energy(DimerState(state.W, state.delta, -1).hoppings(L), p)
            assert plus == pytest.approx(minus, abs=1e-12)


class TestFullChainMinimization:
    def test_soft_ring_dimerizes_2_periodically(self):
        p = ModelParams(mu=1.0, theta=0.05, L=4)
        t = minimize_chain_full(p, n_starts=3).t
        assert max(abs(t[i] - t[(i + 2) % 4]) for i in range(4)) < 1e-5

    def test_stiff_ring_mod2_is_1_periodic(self):
        # mu = 5 > mu_critical(6) = 1/3, so no dimerization even when cold
        t = minimize_chain_full(ModelParams(mu=5.0, theta=0.05, L=6), n_starts=3).t
        assert np.max(np.abs(t - t.mean())) < 1e-5

    def test_hot_ring_is_1_periodic(self):
        t = minimize_chain_full(ModelParams(mu=1.0, theta=2.0, L=8), n_starts=3).t
        assert np.max(np.abs(t - t.mean())) < 1e-5

    def test_ground_state_search(self):
        # at theta = 0, mu = 1 the 4-ring optimum is t alternating 1 and 3
        # with energy -2 per atom (band term W + delta at W=2, delta=1)
        p = ModelParams(mu=1.0, theta=0.0, L=4)
        cfg = minimize_chain_full(p, n_starts=3)
        t = cfg.t
        assert max(abs(t[i] - t[(i + 2) % 4]) for i in range(4)) < 1e-5
        assert chain_energy_zero(cfg, 1.0) / 4 == pytest.approx(-2.0, abs=1e-7)

    def test_large_rings_rejected(self):
        with pytest.raises(ValueError):
            minimize_chain_full(ModelParams(mu=1.0, theta=0.1, L=18))


class TestJFinite:
    def test_zero_at_origin(self):
        for L in (4, 6, 8, 10, 12, 20):
            assert J_finite(0.0, L) == pytest.approx(0.0, abs=1e-14)

    def test_strictly_increasing_where_resolvable(self):
        # for L = 2 mod 4 the curve saturates at mu_critical and increments
        # sink below one ulp past x ~ 35; strictness is asserted where a
        # double can still see it
        xs = np.arange(0.0, 50.0001, 0.1)
        for L in (4, 6, 8, 10, 12, 20):
            vals = np.array([J_finite(float(x), L) for x in xs])
            diffs = np.diff(vals)
            assert np.all(diffs >= 0)
            assert np.all(diffs[xs[:-1] <= 30.0] > 0)

    def test_matches_h_prime_form(self):
        # the kernel-derivative mode sum (the raw Euler-Lagrange difference)
        # equals J_finite for L = 0 mod 4 and twice J_finite for L = 2 mod 4,
        # whose closed-form normalization is half the variational one
        from peierls.kernels import h_eval
        for L, factor in ((8, 1.0), (12, 1.0), (10, 2.0), (6, 2.0)):
            N = L // 2
            for x in (0.5, 3.0, 20.0):
                k = np.arange(1, N + 1)
                hp = np.array([h_eval((x * math.cos(i * math.pi / N)) ** 2).h_prime
                               for i in k])
                el_difference = -2 * x * np.mean(hp * np.cos(2 * k * np.pi / N))
                assert factor * J_finite(x, L) == pytest.approx(el_difference, abs=1e-12)

    def test_linear_regime_for_l_mod4(self):
        # L = 8: the band-center term x/n dominates at large x
        assert J_finite(50.0, 8) == pytest.approx(50.0 / 2, abs=1.0)

    def test_saturation_for_l_mod2(self):
        assert J_finite(50.0, 6) == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestMuCritical:
    def test_six_site_closed_form(self):
        assert mu_critical(6) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ten_site_value(self):
        assert mu_critical(10) == pytest.approx(MU_C_10, abs=1e-12)
        assert mu_critical(10) > mu_critical(6)

    def test_log_growth(self):
        L = 40002
        assert mu_critical(L) / (2 / math.pi * math.log(L)) == pytest.approx(0.8885, abs=2e-3)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            mu_critical(8)


class TestThetaCriticalFinite:
    def test_mod4_reference_values(self):
        cp = theta_critical_finite(2.0, 8)
        assert cp.theta_c == pytest.approx(THETA_C_L8_MU2, abs=1e-9)
        cp = theta_critical_finite(1.0, 8)
        assert cp.theta_c == pytest.approx(THETA_C_L8_MU1, abs=1e-9)
        assert 0 < cp.theta_c < 1.0  # below 1/mu

    def test_supercritical_stiffness_has_no_transition(self):
        # the dimerized branch of a 2-mod-4 ring ends at 2 * mu_critical
        assert theta_critical_finite(1.0, 6) is None
        assert theta_critical_finite(2 * mu_critical(6), 6) is None

    def test_subcritical_stiffness_on_mod2_ring(self):
        for mu in (0.25, 0.5):
            cp = theta_critical_finite(mu, 6)
            assert cp is not None and cp.theta_c > 0

    def test_transition_brackets_dimerization(self):
        cp = theta_critical_finite(2.0, 8)
        below, _ = minimize_dimer_finite(ModelParams(mu=2.0, theta=cp.theta_c - 1e-3, L=8))
        above, _ = minimize_dimer_finite(ModelParams(mu=2.0, theta=cp.theta_c + 1e-3, L=8))
        assert below.delta > 0
        assert above.delta == 0.0

    def test_transition_brackets_dimerization_mod2_ring(self):
        # mu = 0.5 sits between the closed-form constant 1/3 and the true
        # threshold 2/3; the ring must still dimerize below theta_c
        cp = theta_critical_finite(0.5, 6)
        below, _ = minimize_dimer_finite(ModelParams(mu=0.5, theta=cp.theta_c - 1e-3, L=6))
        above, _ = minimize_dimer_finite(ModelParams(mu=0.5, theta=cp.theta_c + 1e-3, L=6))
        assert below.delta > 0
        assert above.delta == 0.0

    def test_mod2_threshold_is_doubled_constant(self):
        # brute-force calibrated: the L=10 dimerized branch ends at
        # 2 * 0.6944271910 = 1.3888543820
        assert theta_critical_finite(1.38, 10) is not None
        assert theta_critical_finite(1.39, 10) is None

    def test_solution_exists_and_is_bounded_across_grid(self):
        for mu in (0.3, 1.0, 3.0):
            for L in (8, 12, 16, 6, 10, 14):
                cp = theta_critical_finite(mu, L)
                if L % 4 == 2 and mu >= 2 * mu_critical(L):
                    assert cp is None
                    continue
                assert cp is not None
                assert 0 < cp.theta_c < 1.0 / mu
