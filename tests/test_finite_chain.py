"""Finite even rings: matrices, energies, dimer reduction, critical lines."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from peierls.finite_chain import (CriticalPoint, DimerState, HoppingConfig,
                                  J_finite, ModelParams, build_hopping_matrix,
                                  chain_energy_zero, chain_free_energy,
                                  g_finite, minimize_chain_full,
                                  minimize_dimer_finite, mu_critical,
                                  theta_critical_finite)
from peierls import finite_chain, numerics, thermodynamic, zero_temperature
from peierls.finite_chain import T_BOX, _ring_derivatives, _ring_levels
from peierls.kernels import _h_second, h_theta
from peierls.numerics import ConvergenceError

# independently solved reference values (Brent root of J + explicit sums,
# cross-checked against a 1e-15 scipy solve)
THETA_C_L8_MU2 = 0.320591933975
THETA_C_L8_MU1 = 0.729359530672
MU_C_10 = 0.6944271909999159
# 30-digit mpmath: -(1/N) sum_{k=1..N} cos(2k pi/N) / |cos(k pi/N)|, N = L/2
MU_C_LARGE_L = {1022: 3.65947763284249834911983804799,
                40002: 5.99407110235935174450355696594}


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
        for mu, theta in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                ModelParams(mu=mu, theta=theta)

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

    def test_non_integral_length_rejected(self):
        # int(L) used to truncate each of these to the ring below; L is
        # reported as given
        cases = [(lambda: mu_critical(6.9), 6.9),
                 (lambda: J_finite(1.0, 8.5), 8.5),
                 (lambda: theta_critical_finite(2.0, 8.5), 8.5),
                 (lambda: ModelParams(mu=1.0, theta=0.1, L=8.5), 8.5),
                 (lambda: DimerState(1.2, 0.1).hoppings(9.9), 9.9)]
        for call, L in cases:
            with pytest.raises(ValueError, match=f"^L must be an even integer >= 4, got {L}$"):
                call()
        # an integral float is its integer
        assert mu_critical(6.0) == mu_critical(6)
        assert J_finite(1.0, 8.0) == J_finite(1.0, 8)
        assert DimerState(1.2, 0.1).hoppings(8.0).t.size == 8

    @pytest.mark.parametrize("L", [None, math.inf, math.nan])
    def test_length_must_be_a_finite_integer(self, L):
        with pytest.raises(ValueError, match=f"^L must be an even integer >= 4, got {L}$"):
            J_finite(1.0, L)
        if L is not None:  # None is the infinite ring's L
            with pytest.raises(ValueError):
                ModelParams(mu=1.0, theta=0.1, L=L)

    @pytest.mark.parametrize("call", [minimize_dimer_finite, minimize_chain_full,
                                      lambda p: g_finite(DimerState(1.0, 0.1), p)])
    def test_finite_ring_calls_need_a_length(self, call):
        # a ModelParams without L raised TypeError from int(None), which a
        # sweep does not turn into an error row
        with pytest.raises(ValueError, match="got None"):
            call(ModelParams(mu=1.0, theta=0.1))

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
        eigs = np.linalg.eigvalsh(T)
        assert np.allclose(eigs, [-2, 0, 0, 2], atol=1e-12)

    def test_alternating_ring_spectrum(self):
        a, b = 0.7, 1.3
        T = build_hopping_matrix(ring(a, b, a, b))
        eigs2 = np.sort(np.linalg.eigvalsh(T) ** 2)
        k = np.arange(1, 5)
        want = np.sort(a * a + b * b + 2 * a * b * np.cos(4 * k * np.pi / 4))
        assert np.allclose(eigs2, want, atol=1e-10)

    def test_trace_zero(self):
        rng = np.random.default_rng(3)
        for L in (4, 5, 8, 11):
            T = build_hopping_matrix(HoppingConfig(rng.uniform(0.2, 2.0, L)))
            assert np.trace(T) == 0.0
            # exactly symmetric: eigvalsh sees the matrix the model built
            assert np.array_equal(T, T.T)

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(17)
        for L in (4, 6, 8, 12):
            T = build_hopping_matrix(HoppingConfig(rng.uniform(0.3, 2.0, L)))
            eigs = np.linalg.eigvalsh(T)
            assert np.allclose(eigs, -eigs[::-1], atol=1e-8)


class TestRingLevels:
    def test_levels_match_eigvalsh(self):
        # +-sigma of the even-to-odd block against the spectrum of the whole
        # ring matrix, both residues of L mod 4, hoppings across T_BOX: the
        # largest error measured is 6.5e-15 of the largest level
        for L in range(4, 257, 2):
            t = np.random.default_rng(L).uniform(*T_BOX, L)
            sigma = _ring_levels(t)
            assert sigma.size == L // 2
            levels = np.sort(np.concatenate((-sigma, sigma)))
            want = np.linalg.eigvalsh(build_hopping_matrix(HoppingConfig(t)))
            assert np.max(np.abs(levels - want)) <= 2e-14 * np.max(np.abs(want)), L

    def test_uniform_ring_zero_levels(self):
        # the uniform ring's levels 2 cos(2 pi k / L) include two zeros
        # (k = L/4, 3L/4) for L = 0 mod 4 and none for L = 2 mod 4, where the
        # least is 2 sin(pi / L); the zero singular value measures <= 1.4e-16
        for L in (4, 8, 12, 16, 64, 256, 1020, 1024, 6, 10, 14, 1022):
            sigma = _ring_levels(np.ones(L))
            levels = np.concatenate((-sigma, sigma))
            zeros = np.sum(np.abs(levels) <= 1e-15)
            assert zeros == (2 if L % 4 == 0 else 0), L
            want = np.sort(np.abs(2 * np.cos(2 * np.pi * np.arange(L) / L)))
            assert np.sort(np.abs(levels)) == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestChainEnergies:
    def test_uniform_ring_band_energy(self):
        # the uniform ring's levels are 2 cos(2 pi k / L): its band energy
        # is their absolute sum, and the distortion term vanishes
        for L in (4, 6, 10, 64, 128, 1022, 1024):
            want = np.sum(np.abs(2 * np.cos(2 * np.pi * np.arange(L) / L)))
            val = chain_energy_zero(HoppingConfig(np.ones(L)), 1.0)
            assert val == pytest.approx(-want, rel=1e-14, abs=1e-12)

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
        for mu in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                chain_energy_zero(ring(1, 1, 1, 1), mu)

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

    def test_length_must_match_the_hoppings(self):
        # an L other than the hoppings' count is refused, not read as theirs
        cfg = ring(*[1.1, 0.9] * 4)
        with pytest.raises(ValueError, match="L = 12 but the ring has 8 hoppings"):
            chain_free_energy(cfg, ModelParams(mu=2.0, theta=0.1, L=12))
        assert (chain_free_energy(cfg, ModelParams(mu=2.0, theta=0.1, L=8))
                == chain_free_energy(cfg, ModelParams(mu=2.0, theta=0.1)))

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError):
            chain_free_energy(ring(1, 1, 1, 1), ModelParams(mu=1.0, theta=0.0, L=4))

    def test_odd_rings_refused(self):
        # a ring of odd length is not bipartite: both energies refuse it, as
        # every other ring routine does
        for L in (5, 7):
            cfg = ring(*[1.1, 0.9] * (L // 2), 1.0)
            message = f"L must be an even integer >= 4, got {L}"
            with pytest.raises(ValueError, match=message):
                chain_free_energy(cfg, ModelParams(mu=2.0, theta=0.1))
            with pytest.raises(ValueError, match=message):
                chain_energy_zero(cfg, 2.0)


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

    def test_coldest_rings_keep_their_state(self):
        # x = W/theta passes 1e154 here: squared, x sin t overflowed and a
        # 2-mod-4 ring's 1-periodic root ended at W = 1 with a wrong value.
        # tanh(x sin t)/sin t keeps the theta = 1e-100 state down to 1e-300,
        # with no floating-point warning. The infinite ring still raises at
        # 1e-160: its root's mode mean needs more than numerics._MEAN_MAX_NODES
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for L in (6, 8, 10, 14):
                state, value = minimize_dimer_finite(ModelParams(2.0, 1e-100, L))
                for theta in (1e-160, 1e-300):
                    got, got_value = minimize_dimer_finite(ModelParams(2.0, theta, L))
                    assert abs(got.W - state.W) <= 1e-15, (L, theta)
                    assert abs(got.delta - state.delta) <= 1e-15, (L, theta)
                    assert abs(got_value - value) <= 1e-15, (L, theta)
            with pytest.raises(ConvergenceError):
                thermodynamic.minimize_dimer_thermo(ModelParams(2.0, 1e-160))

    @pytest.mark.parametrize("L", [None, 8])
    def test_smallest_stiffness_raises_below_theta_c(self, L):
        # at mu = 1e-8, the bottom of the stated domain, W and delta are
        # ~1/mu but the fan starts at delta <= 0.5: the simplex runs out of
        # its budget on both rings, a clean error and not a wrong value.
        # From mu = 1e-7 the search returns (ROADMAP item 2 mends this)
        minimize, _, crit = _ring_and_mean(1e-8, L)
        with pytest.raises(ConvergenceError, match="did not converge"):
            minimize(ModelParams(mu=1e-8, theta=0.5 * crit.theta_c, L=L))


class TestDimerReductionHessian:
    """The dimer minimum checked on the full ring by its exact derivatives.

    At minimize_dimer_finite's (W, delta), the ring's F / L is the returned
    value, its Hessian over all L hoppings is positive definite, so the
    2-periodic point is a strict local minimum of the full ring, and its
    gradient is small. The simplex stops on values, not on the gradient,
    which leaves |g| at 4.5e-9 to 2.4e-8 here; a Newton dimer search
    (ROADMAP item 2) tightens the |g| bound to rounding.
    """

    @pytest.mark.parametrize("mu, theta, L", [(2.0, 0.1, 8), (2.0, 0.05, 64), (1.0, 0.05, 128),
                                              (3.0, 0.01, 256), (2.0, 0.3, 8)])
    def test_strict_minimum_of_the_full_ring(self, mu, theta, L):
        state, value = minimize_dimer_finite(ModelParams(mu=mu, theta=theta, L=L))
        assert state.delta > 0
        F, g, H = _ring_derivatives(state.hoppings(L).t, mu, theta)
        assert F / L == pytest.approx(value, abs=1e-14)
        assert np.linalg.eigvalsh(H)[0] > 0.1  # measured 0.198 to 1.31
        assert np.max(np.abs(g)) <= 1e-7


def _hessian_in_squares(W, delta, mu, theta, L):
    """The Hessian of the dimer energy F in (P, s) = (W^2, delta^2) from band
    means of h_theta''(y) = h''(y/(4 theta^2))/(16 theta^3) at the squared
    levels y = 4 P sin^2 t + 4 s cos^2 t: H_PP = (mu/4) P^(-3/2) - 16 <h_theta''
    sin^4 t>, H_Ps = -16 <h_theta'' sin^2 t cos^2 t>, H_ss = -16 <h_theta'' cos^4 t>."""
    def rows(sin_t, cos_t):
        sn2, cs2 = sin_t ** 2, cos_t ** 2
        hpp = _h_second((W * W * sn2 + delta * delta * cs2) / (theta * theta)) / (16 * theta ** 3)
        return np.stack((hpp * sn2 * sn2, hpp * sn2 * cs2, hpp * cs2 * cs2))
    # h''s singularities are h_theta's, so the strip is finite_chain._band_energy's
    big, small = max(W, delta), min(W, delta)
    eta = math.asinh(math.sqrt((small ** 2 + (0.5 * math.pi * theta) ** 2) / (big ** 2 - small ** 2)))
    m_pp, m_ps, m_ss = _ring_and_mean(mu, L)[1](rows, eta)
    return np.array([[0.25 * mu * W ** -3 - 16 * m_pp, -16 * m_ps], [-16 * m_ps, -16 * m_ss]])


class TestConvexityInSquares:
    """F is convex in (P, s) = (W^2, delta^2), the premise of the dimer search's
    phase rule: delta = 0 is the minimum iff dF/ds >= 0 at the 1-periodic root."""

    def test_hessian_matches_finite_differences(self):
        # against central second differences of _band_energy in (P, s), step
        # 1e-3: measured within 1.2e-5 of the largest entry, bound 1e-4
        for mu, theta, L, W, delta in ((2.0, 0.3, None, 1.2, 0.3), (0.5, 0.05, 8, 1.6, 0.4),
                                       (4.0, 1.0, 6, 1.1, 0.2)):
            mean = _ring_and_mean(mu, L)[1]
            F = lambda P, s: finite_chain._band_energy(math.sqrt(P), math.sqrt(s), mu, theta,
                                                       mean)
            P, s, h = W * W, delta * delta, 1e-3
            fd = np.array([
                [(F(P + h, s) - 2 * F(P, s) + F(P - h, s)) / h ** 2,
                 (F(P + h, s + h) - F(P + h, s - h) - F(P - h, s + h) + F(P - h, s - h))
                 / (4 * h * h)],
                [0.0, (F(P, s + h) - 2 * F(P, s) + F(P, s - h)) / h ** 2]])
            fd[1, 0] = fd[0, 1]
            H = _hessian_in_squares(W, delta, mu, theta, L)
            assert np.all(np.abs(H - fd) <= 1e-4 * np.abs(H).max()), (mu, theta, L)

    @pytest.mark.parametrize("L", [None, 4, 6, 8, 14, 64])
    def test_positive_definite(self, L):
        # on 40 seeded points, mu 1e-2 to 20 and theta 1e-3 to 3 log-uniform,
        # W in [0.2, 3] and delta in [0, W): both eigenvalues positive (the
        # smaller at least 4.7e-4 of the larger, measured)
        rng = np.random.default_rng(33)
        for mu, theta, W, d in zip(10 ** rng.uniform(-2, math.log10(20), 40),
                                   10 ** rng.uniform(-3, math.log10(3), 40),
                                   rng.uniform(0.2, 3.0, 40), rng.uniform(0.0, 1.0, 40)):
            H = _hessian_in_squares(W, d * W, mu, theta, L)
            assert np.linalg.eigvalsh(H)[0] > 0, (mu, theta, W, d * W)


def test_dimer_search_path(monkeypatch):
    # the simplex runs of both dimer minimizers below theta_c, the fan's 4
    # starts and 1 polish, called through the numerics namespace so that
    # wrappers installed there see each one; the counts are those of the
    # search as it stands
    real = numerics.minimize_box
    counts = {"calls": 0, "evals": 0}

    def counted(f, *args):
        counts["calls"] += 1

        def g(z):
            counts["evals"] += 1
            return f(z)
        return real(g, *args)

    monkeypatch.setattr(numerics, "minimize_box", counted)
    for minimize, p, evals in ((thermodynamic.minimize_dimer_thermo, ModelParams(2.0, 0.1), 546),
                               (minimize_dimer_finite, ModelParams(2.0, 0.1, 8), 592)):
        counts.update(calls=0, evals=0)
        minimize(p)
        assert counts == {"calls": 5, "evals": evals}


@pytest.mark.parametrize("exc", [ValueError("band mean failed"),
                                 ConvergenceError("inner mean", best=0.5)])
@pytest.mark.parametrize("theta", [0.1, 0.5])  # the fan and the one root: theta_c = 0.32
def test_band_mean_errors_propagate(exc, theta):
    # the dimer search lets a band mean's error through as it was raised: the
    # 1-periodic root's, and after it the energy's, in the fan at theta = 0.1
    ring_mean = finite_chain._ring_mean(finite_chain._ring_nodes(8))
    for in_root in (True, False):
        def mean(f, eta):
            if (getattr(f, "func", None) is finite_chain._periodic_rows) == in_root:
                raise exc
            return ring_mean(f, eta)
        with pytest.raises(type(exc)) as err:
            finite_chain._minimize_dimer(ModelParams(2.0, theta, 8), mean)
        assert err.value is exc


def _periodic_W_reference(mu, theta, L):
    """W of the 1-periodic minimum by scipy: the root of mu (W - 1) = 2 m_s,
    m_s = <tanh(W |c|/theta) |c|> over the band, by quad for the infinite
    ring and over the L ring levels 2W cos(2 pi k/L) for a finite one."""
    if L is None:
        m_s = lambda W: 2.0 / math.pi * scipy.integrate.quad(
            lambda s: math.tanh(W * math.sin(s) / theta) * math.sin(s), 0.0, 0.5 * math.pi,
            epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    else:
        c = np.abs(np.cos(2.0 * np.pi * np.arange(L) / L))
        m_s = lambda W: float(np.mean(np.tanh(W * c / theta) * c))
    return scipy.optimize.brentq(lambda W: mu * (W - 1.0) - 2.0 * m_s(W),
                                 1.0, 2.0 + 4.0 / (math.pi * mu), xtol=1e-15, rtol=1e-15)


def _ring_and_mean(mu, L):
    # (minimizer, band mean, critical point) of the infinite ring or the ring of L atoms
    if L is None:
        return (thermodynamic.minimize_dimer_thermo, thermodynamic._band_mean,
                thermodynamic.theta_critical_thermo(mu))
    return (minimize_dimer_finite, finite_chain._ring_mean(finite_chain._ring_nodes(L)),
            theta_critical_finite(mu, L))


# theta/theta_c above the transition at mu in {0.5, 2, 4, 8}, on both rings, and an L = 6
# ring past 2 mu_critical(6) = 2/3, whose critical point is None (theta given directly)
_PERIODIC_POINTS = ([(mu, L, r) for L in (None, 8) for mu in (0.5, 2.0, 4.0, 8.0)
                     for r in (1.001, 1.1, 2.0)]
                    + [(mu, 6, theta) for mu in (1.0, 4.0) for theta in (0.05, 0.5)])


def _periodic_params(mu, L, r):
    crit = _ring_and_mean(mu, L)[2]
    return ModelParams(mu, r * crit.theta_c if crit else r, L)


class TestPhaseFromThetaC:
    """At or above theta_c, or where a ring never dimerizes, the minimum is
    1-periodic and comes from one root, with no simplex. The search reads its
    phase from the sign of mu W - 2 m_c at that root, not from theta_c: the
    paper's theorem, one theta_c and dimerized exactly below it, is tested here."""

    MUS = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 50.0, 100.0, 200.0)
    RATIOS = (0.01, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1.1, 3.0)

    @pytest.mark.parametrize("L", [None, 4, 8, 10, 16, 64, 1024])
    def test_kkt_sign_is_the_phase_of_theta_c(self, monkeypatch, L):
        # dimerized iff theta < theta_c over 15 mu x 11 theta/theta_c, theta_c
        # itself 1-periodic; an L = 10 ring past 2 mu_critical(10) = 1.39 (mu
        # >= 2 here, no theta_c) is 1-periodic at the infinite ring's theta
        # grid. Every root takes at most 6 band means (3.9 on average), measured
        monkeypatch.setattr(finite_chain, "_dimer_fan", lambda p, mean: (None, "dimerized"))
        ring_mean = (thermodynamic._band_mean if L is None
                     else finite_chain._ring_mean(finite_chain._ring_nodes(L)))
        means = []

        def mean(f, eta):
            means.append(1)
            return ring_mean(f, eta)

        for mu in self.MUS:
            crit = _ring_and_mean(mu, L)[2]
            theta_c = (crit or thermodynamic.theta_critical_thermo(mu)).theta_c
            for r in self.RATIOS:
                means.clear()
                _, value = finite_chain._minimize_dimer(ModelParams(mu, r * theta_c, L), mean)
                dimerized = value == "dimerized"
                assert dimerized == (crit is not None and r * theta_c < theta_c), (mu, r)
                assert len(means) - (not dimerized) <= 6, (mu, r)  # the 1-periodic energy's mean

    def test_searches_call_no_theta_c(self, monkeypatch):
        # both searches, 1-periodic (theta = 0.5) and dimerized (theta = 0.1), with
        # every theta_c solve raising: theta_c(2) = 0.21, and 0.32 on the ring of 8
        def no_theta_c(*args):
            raise AssertionError("theta_c called")
        monkeypatch.setattr(thermodynamic, "theta_critical_thermo", no_theta_c)
        monkeypatch.setattr(finite_chain, "theta_critical_finite", no_theta_c)
        for L in (None, 8):
            minimize = thermodynamic.minimize_dimer_thermo if L is None else minimize_dimer_finite
            assert minimize(ModelParams(2.0, 0.5, L))[0].delta == 0.0
            assert minimize(ModelParams(2.0, 0.1, L))[0].delta > 0.0

    @pytest.mark.parametrize("mu, L, r", _PERIODIC_POINTS)
    def test_periodic_minimum_is_one_root(self, monkeypatch, mu, L, r):
        def no_simplex(*args):
            raise AssertionError("simplex called")

        means = []

        def counted(mean):
            return lambda f, eta: means.append(1) or mean(f, eta)

        p = _periodic_params(mu, L, r)
        minimize = _ring_and_mean(mu, L)[0]
        monkeypatch.setattr(numerics, "minimize_box", no_simplex)
        monkeypatch.setattr(thermodynamic, "_band_mean", counted(thermodynamic._band_mean))
        ring_mean = finite_chain._ring_mean
        monkeypatch.setattr(finite_chain, "_ring_mean", lambda n: counted(ring_mean(n)))
        state, value = minimize(p)
        assert state.delta == 0.0
        # the root's means and the energy's: 4 to 6 measured
        assert len(means) <= 6
        # measured within 1.2e-12 (mu = 0.5, theta = 2 theta_c)
        assert state.W == pytest.approx(_periodic_W_reference(mu, p.theta, L), abs=1e-11)
        energy = g_finite if L else thermodynamic.g_thermo
        assert value == energy(state, p)

    # W of the 1-periodic minimum at mu = 1e-8, theta_c = 9.99998723e7, from
    # 50-digit mpmath roots of mu (W - 1) = 2 m_s, m_s = <tanh(x |sin t|) |sin t|>
    # by quadrature; the ring of 8 has the same roots to these digits
    PERIODIC_W_MU_MIN = {1.0001e8: 10000.749993750833277347, 1.1e8: 10.999999999999725,
                         2e8: 1.99999999999999995, 1e9: 1.1111111111111111111}

    @pytest.mark.parametrize("L", [None, 8])
    def test_periodic_W_at_smallest_stiffness(self, L):
        # mu W and 2 m_s nearly cancel, so a stop at |residual| <= 1e-12
        # would leave W up to 1.5e-5 off; Newton's stop on its step leaves it
        # within 2.4e-12 (at 1.0001e8, where W = 1e4) and 2.4e-15 elsewhere,
        # measured, bound 1e-11
        minimize = _ring_and_mean(1e-8, L)[0]
        for theta, want in self.PERIODIC_W_MU_MIN.items():
            state, _ = minimize(ModelParams(1e-8, theta, L))
            assert state.W == pytest.approx(want, rel=1e-11, abs=0)

    @pytest.mark.parametrize("mu, L, r", _PERIODIC_POINTS)
    def test_no_dimerized_state_is_lower(self, mu, L, r):
        # the paper's theorem that the root's sign relies on, checked by the
        # 2-D simplex fan of the dimerized phase, run on its own: its best value
        # is never below the root's by more than 1e-13 (measured at most
        # 1.8e-15 below, the band mean's rounding)
        minimize, mean, _ = _ring_and_mean(mu, L)
        p = _periodic_params(mu, L, r)
        _, root_value = minimize(p)
        try:
            fan_value = finite_chain._dimer_fan(p, mean)[1]
        except ConvergenceError as err:  # the fan's delta fell below DELTA_ZERO
            fan_value = err.best[1]
        assert fan_value >= root_value - 1e-13


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

    def test_needs_a_start(self):
        # a whole number of starts: 1.5 would run two (np.arange(1, 2.5))
        for n_starts in (0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="n_starts"):
                minimize_chain_full(ModelParams(mu=1.0, theta=0.1, L=4), n_starts=n_starts)

    def test_largest_ring_is_2_periodic(self):
        t = minimize_chain_full(ModelParams(mu=2.0, theta=0.05, L=16), n_starts=2).t
        assert np.max(np.abs(t - np.roll(t, 2))) < 1e-9

    @pytest.mark.parametrize("mu, L", [(1.0, 4), (2.0, 8)])
    def test_criterion_06_pairs_are_2_periodic_to_roundoff(self, mu, L):
        # criterion 06's pairs and starts; its bounds are 1e-5 and 1e-8
        p = ModelParams(mu=mu, theta=0.05, L=L)
        cfg = minimize_chain_full(p, n_starts=4)
        assert np.max(np.abs(cfg.t - np.roll(cfg.t, 2))) < 1e-9
        _, per_atom = minimize_dimer_finite(p)
        assert chain_free_energy(cfg, p) / L == pytest.approx(per_atom, abs=1e-12)

    def test_soft_ring_minimum_on_the_box(self):
        # W* = 1 + 4/(pi mu) is past T_BOX at mu = 0.5: every other bond sits
        # on the upper bound and the gradient vanishes in the free ones
        p = ModelParams(mu=0.5, theta=0.05, L=8)
        t = minimize_chain_full(p, n_starts=3).t
        free = t < T_BOX[1]
        assert free.sum() == 4 and np.max(np.abs(t - np.roll(t, 2))) < 1e-9
        assert np.max(np.abs(_ring_derivatives(t, p.mu, p.theta)[1][free])) < 1e-9

    def test_never_reaches_the_simplex(self, monkeypatch):
        def simplex(*args, **kwargs):
            raise AssertionError("simplex called")
        monkeypatch.setattr(numerics, "minimize_box", simplex)
        for theta in (0.0, 0.05):
            t = minimize_chain_full(ModelParams(mu=1.0, theta=theta, L=4), n_starts=2).t
            assert np.max(np.abs(t - np.roll(t, 2))) < 1e-9

    def test_step_budget_exhaustion_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(finite_chain, "_NEWTON_STEPS", 1)
        p = ModelParams(mu=1.0, theta=0.05, L=4)
        with pytest.raises(ConvergenceError) as err:
            minimize_chain_full(p, n_starts=1)
        x, value = err.value.best
        start = T_BOX[0] + (T_BOX[1] - T_BOX[0]) * numerics.lattice_points(1, 4)[0]
        assert np.all((x >= T_BOX[0]) & (x <= T_BOX[1]))
        assert value == pytest.approx(chain_free_energy(HoppingConfig(x), p), abs=1e-12)
        assert value < chain_free_energy(HoppingConfig(start), p)


def check_derivatives(t, mu, theta):
    """_ring_derivatives against the ring's energy and central differences."""
    F, g, H = _ring_derivatives(t, mu, theta)
    cfg = HoppingConfig(t)
    energy = (chain_free_energy(cfg, ModelParams(mu=mu, theta=theta, L=t.size)) if theta > 0
              else chain_energy_zero(cfg, mu))
    assert F == pytest.approx(energy, abs=1e-12)
    h = 1e-5
    for i, e in enumerate(np.eye(t.size)):
        up, down = _ring_derivatives(t + h * e, mu, theta), _ring_derivatives(t - h * e, mu, theta)
        assert g[i] == pytest.approx((up[0] - down[0]) / (2 * h), abs=1e-8)
        assert np.allclose(H[i], (up[1] - down[1]) / (2 * h), rtol=0, atol=1e-7)
    assert np.allclose(H, H.T, rtol=0, atol=1e-12)


class TestRingDerivatives:
    @pytest.mark.parametrize("theta", [0.05, 2.0])
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_match_central_differences(self, theta, L):
        check_derivatives(np.random.default_rng(L).uniform(0.5, 1.5, L), 1.3, theta)

    def test_zero_temperature_on_a_gapped_ring(self):
        # t near (1, 3, 1, 3, ...): levels at |e| >= 2, far from the kink of |e|
        t = np.tile([1.0, 3.0], 4) + np.random.default_rng(0).uniform(-0.1, 0.1, 8)
        check_derivatives(t, 1.0, 0.0)

    def test_uniform_ring_degenerate_levels(self):
        # the uniform ring's levels pair up, where the divided differences are f''
        check_derivatives(np.ones(8), 1.0, 0.05)


class TestJFinite:
    @pytest.mark.parametrize("x", [-0.5, math.nan, math.inf])
    def test_x_must_be_finite_and_non_negative(self, x):
        # as J_thermo: NaN and inf are refused, not summed into nan and inf
        with pytest.raises(ValueError, match="x must be finite and >= 0"):
            J_finite(x, 8)

    def test_zero_at_origin(self):
        for L in (4, 6, 8, 10, 12, 20):
            assert J_finite(0.0, L) == pytest.approx(0.0, abs=1e-14)

    def test_strictly_increasing_where_resolvable(self):
        # for L = 2 mod 4 the curve saturates at mu_critical and increments
        # sink below one ulp past x ~ 35; strictness is asserted where a
        # double can still see it
        xs = np.arange(0.0, 50.0001, 0.1)
        for L in (4, 6, 8, 10, 12, 20, 64, 126, 128, 1022, 1024):
            vals = np.array([J_finite(float(x), L) for x in xs])
            diffs = np.diff(vals)
            assert np.all(diffs >= 0)
            assert np.all(diffs[xs[:-1] <= 30.0] > 0)

    def test_matches_h_prime_form(self):
        # the kernel-derivative mode sum (the raw Euler-Lagrange difference)
        # equals J_finite for L = 0 mod 4 and twice J_finite for L = 2 mod 4,
        # whose closed-form normalization is half the variational one
        # h'(r^2) = tanh(r)/r in closed form
        for L, factor in ((8, 1.0), (12, 1.0), (10, 2.0), (6, 2.0)):
            N = L // 2
            for x in (0.5, 3.0, 20.0):
                k = np.arange(1, N + 1)
                r = [abs(x * math.cos(i * math.pi / N)) for i in k]
                hp = np.array([math.tanh(v) / v if v else 1.0 for v in r])
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

    def test_large_rings_against_mpmath(self):
        for L, want in MU_C_LARGE_L.items():
            assert mu_critical(L) == pytest.approx(want, rel=1e-13, abs=0)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            mu_critical(8)

    def test_values_are_python_floats(self):
        assert type(mu_critical(10)) is float
        for L in (8, 10):
            assert type(J_finite(3.0, L)) is float and type(J_finite(0.0, L)) is float


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

    def test_j_call_budget(self, monkeypatch):
        # J is evaluated once per Newton iterate, as one tanh(x a) pass over
        # the ring's nodes that also gives its slope, so J calls are counted
        # as tanh passes. On the benchmark's grid, mu 0.75..1.5 over its 14
        # lengths, measured 3.98 passes a solve on average and at most 5
        # (the secant made 6.9 J calls on average)
        passes = []
        tanh = np.tanh
        monkeypatch.setattr(np, "tanh", lambda v: passes.append(1) or tanh(v))
        counts = []
        for mu in (0.75, 1.0, 1.25, 1.5):
            for L in (6, 8, 14, 16, 30, 32, 64, 126, 128, 256, 510, 512, 1022, 1024):
                passes.clear()
                if theta_critical_finite(mu, L) is not None:
                    counts.append(len(passes))
        assert len(counts) == 52
        assert np.mean(counts) <= 4.5 and max(counts) <= 6

    def test_one_band_mean_per_solve(self, monkeypatch):
        # both Euler-Lagrange means come from the last iterate's tanh pass
        # and reach _critical_point once (none past the threshold of
        # L = 2 mod 4), after the one Newton solve; no band mean is called
        def banned(*args):
            raise AssertionError("band mean called")
        monkeypatch.setattr(finite_chain, "_ring_mean", banned)
        solves = []
        newton_log = finite_chain._newton_log
        monkeypatch.setattr(finite_chain, "_newton_log",
                            lambda step, u: solves.append(u) or newton_log(step, u))
        means = []
        critical_point = finite_chain._critical_point
        monkeypatch.setattr(finite_chain, "_critical_point",
                            lambda mu, x, m_s, m_c: means.append((m_s, m_c))
                            or critical_point(mu, x, m_s, m_c))
        for mu, L in ((2.0, 8), (0.5, 10), (2.0, 1024), (2.0, 1022), (1.39, 10)):
            means.clear()
            solves.clear()
            cp = theta_critical_finite(mu, L)
            assert len(means) == len(solves) == (cp is not None)

    @pytest.mark.parametrize("mu", [903.0, 1e3, 1e4, 1e6])
    def test_large_stiffness(self, mu):
        # the start's weak-coupling x0 = e^(pi mu/4)/C would overflow from
        # mu ~ 902 but for its cap; J_finite at the root is mu to 8.9e-16
        # relative measured, bound 2e-15. L = 10 is past 2 mu_critical(10) = 1.39
        for L in (4, 8, 1024):
            cp = theta_critical_finite(mu, L)
            assert abs(J_finite(cp.x, L) / mu - 1.0) <= 2e-15
        assert theta_critical_finite(mu, 10) is None

    @pytest.mark.parametrize("mu", [1e8, 1e9, 1e12, 1e15])
    def test_huge_stiffness(self, mu):
        # from mu ~ 1e8 mu W - 2 m_c rounds to more than 1e-8 (8.9e-8, -3.0e-8
        # and -7.5e-8 at 1e8), so it is held to 64 eps |mu W| max(1, ln x) there;
        # J_finite at the root is mu to 2.1e-15 relative measured, bound 1e-14
        for L in (4, 8, 1024):
            cp = theta_critical_finite(mu, L)
            assert abs(J_finite(cp.x, L) / mu - 1.0) <= 1e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_stiffness_check_is_not_vacuous(self, monkeypatch, sign):
        # m_c off by 1e-12 relative at mu = 1e12 moves mu W - 2 m_c by ~1,
        # which the relative bound still catches: 0.39 at L = 4 (ln x = 27.6)
        # and 0.47 at L = 1024 (ln x = 33.2), a margin of about 2x there
        critical_point = finite_chain._critical_point
        monkeypatch.setattr(finite_chain, "_critical_point",
                            lambda mu, x, m_s, m_c:
                            critical_point(mu, x, m_s, m_c * (1.0 + sign * 1e-12)))
        for L in (4, 8, 1024):
            with pytest.raises(RuntimeError, match="critical-point equations inconsistent"):
                theta_critical_finite(1e12, L)

    def test_ln_x_rounding_is_in_the_bound(self):
        # x solved in ln x is off by ~eps ln x relative, which moved mu W - 2 m_c
        # past 64 eps |mu W| from mu ~ 7.4e53 (at 1512 of these 9000 points);
        # held to 64 eps |mu W| max(1, ln x), no point raises (residuals at
        # most 0.8 % of the bound) up to where mu x overflows (mu ~ 2.7e154 /
        # sqrt(L)), and J at the root is its target to 2.8e-14 relative
        # measured, bound 4e-14. L = 1022 is past its threshold throughout
        for L in (4, 8, 64, 256, 1022, 1024):
            for mu in np.logspace(50, 151, 1500):
                cp = theta_critical_finite(float(mu), L)
                assert (cp is None) == (L == 1022)
                if cp is not None:
                    assert abs(J_finite(cp.x, L) / mu - 1.0) <= 4e-14

    def test_threshold_approach_of_mod2_rings(self, monkeypatch):
        # mu = 2 mu_critical(L)(1 - 10^-k) up to k = 16, where J flattens
        # towards its saturation: a critical point wherever mu is below the
        # threshold, J at the root within 4.4e-16 of mu/2 (3.3e-16 measured)
        # in at most 90 Newton iterates (82 measured, L = 6 at k = 16)
        iterates = []
        newton_log = finite_chain._newton_log

        def counted(step, u):
            return newton_log(lambda u: iterates.append(u) or step(u), u)
        monkeypatch.setattr(finite_chain, "_newton_log", counted)
        for L in (6, 10, 14, 62, 1022):
            threshold = 2.0 * mu_critical(L)
            for k in range(2, 17):
                mu = threshold * (1.0 - 10.0 ** -k)
                iterates.clear()
                cp = theta_critical_finite(mu, L)
                assert (cp is None) == (mu >= threshold)
                if cp is not None:
                    assert abs(J_finite(cp.x, L) / (0.5 * mu) - 1.0) <= 4.4e-16
                    assert len(iterates) <= 90

    def test_returns_on_the_whole_domain(self, monkeypatch):
        # 25 log-spaced mu over the domain [1e-8, 200] on short, long and
        # both parities of ring: a critical point exactly where the ring
        # dimerizes, in at most 7 passes measured (bound 10), 4.07 on average
        passes = []
        tanh = np.tanh
        monkeypatch.setattr(np, "tanh", lambda v: passes.append(1) or tanh(v))
        for mu in np.logspace(-8, math.log10(200.0), 25):
            for L in (4, 6, 8, 10, 12, 14, 30, 64, 222, 254, 510, 1022, 1024):
                passes.clear()
                cp = theta_critical_finite(float(mu), L)
                assert (cp is None) == (L % 4 == 2 and mu >= 2 * mu_critical(L))
                assert len(passes) <= 10

    # theta_c from 40-digit mpmath: the root of J_finite = mu (mu/2 for
    # L = 2 mod 4) as a node sum, then theta_c = (mu + 2 m_s)/(mu x)
    THETA_C_MPMATH = {(2.0, 8): 0.320591933975441952,
                      (1.5416940691187107, 14): 0.30162021926495423907,
                      (0.75, 16): 0.97184280646043019657,
                      (1.25, 32): 0.47566832563393143795,
                      (1.5, 126): 0.35517578461572404329}

    @pytest.mark.parametrize("mu, L", sorted(THETA_C_MPMATH))
    def test_theta_c_against_mpmath(self, mu, L):
        # Newton stops after a step of at most 3e-8 in ln x, so x is
        # quadratically converged: measured at most 2.2e-16 relative (the
        # secant's |J - mu| <= 1e-12 left 3.0e-13, 1.3e-12, 3.4e-13 and
        # 1.8e-13 at all but L = 32)
        ref = self.THETA_C_MPMATH[(mu, L)]
        assert theta_critical_finite(mu, L).theta_c == pytest.approx(ref, rel=2e-15, abs=0)

    def test_node_terms_once_per_solve(self, monkeypatch):
        # the mode nodes are built once per ring length, not once per call:
        # the threshold of L = 2 mod 4, every J call and the band mean of
        # repeated solves, J_finite, mu_critical, g_finite and
        # minimize_dimer_finite at one L share one build
        builds = []
        mode_nodes = finite_chain._mode_nodes
        monkeypatch.setattr(finite_chain, "_mode_nodes",
                            lambda n: builds.append(n) or mode_nodes(n))
        finite_chain._ring_nodes.cache_clear()
        cases = ((2.0, 8), (0.5, 10), (2.0, 1024), (2.0, 1022), (1.39, 10))
        for _ in range(2):
            for mu, L in cases:
                theta_critical_finite(mu, L)
                J_finite(1.5, L)
                if L % 4 == 2:
                    mu_critical(L)
                p = ModelParams(mu=mu, theta=2.0, L=L)  # above theta_c: one root
                g_finite(DimerState(W=1.1, delta=0.1), p)
                minimize_dimer_finite(p)
        assert builds == [4, 5, 512, 511]

    def test_cached_nodes_are_read_only_and_bounded(self):
        nodes = finite_chain._ring_nodes(8)
        for v in nodes[:6]:
            with pytest.raises(ValueError):
                v[0] = 1.0
        assert finite_chain._ring_nodes.cache_info().maxsize == finite_chain._RING_CACHE

    def test_solve_after_eviction_is_the_cold_solve(self):
        # a ring whose nodes were evicted by more than the cache's size of
        # other rings is rebuilt, and its outputs keep the bits of the cold
        # build's, as do the warm calls before the eviction
        calls = lambda: (theta_critical_finite(1.25, 32), theta_critical_finite(0.5, 30),
                         J_finite(0.7, 32), mu_critical(30),
                         g_finite(DimerState(W=1.1, delta=0.1), ModelParams(2.0, 0.1, 30)))
        cache = finite_chain._ring_nodes
        cache.cache_clear()
        cold = calls()
        assert calls() == cold and cache.cache_info().misses == 2
        for L in range(34, 36 + 2 * finite_chain._RING_CACHE, 2):
            cache(L)
        misses = cache.cache_info().misses
        assert calls() == cold and cache.cache_info().misses == misses + 2

    def test_domain(self):
        # NaN and inf stiffnesses made the bracket walk loop forever, and
        # an infinite one passed the L = 2 mod 4 threshold as "no transition"
        for bad in (0.0, -1.0, 1e-9, 1e-30, math.nan, math.inf):
            for L in (6, 8):
                with pytest.raises(ValueError):
                    theta_critical_finite(bad, L)

    def test_smallest_stiffness_against_mpmath(self):
        # x at mu = 1e-8, the bottom of the domain, from 50-digit mpmath
        # roots of J (the quadrature for L = inf, the node sum for a ring).
        # J ~ x^3/6 is summed from terms of size x; measured 2.7e-11 (inf),
        # 6.4e-12 (L = 8) and 2.0e-11 (L = 10), bound 5e-11
        refs = {None: 0.003914875641187729447, 8: 0.003914875641184627693,
                10: 0.003914875641187729451}
        for L, x in refs.items():
            cp = (thermodynamic.theta_critical_thermo(1e-8) if L is None
                  else theta_critical_finite(1e-8, L))
            assert cp.x == pytest.approx(x, rel=5e-11, abs=0)

    def test_fields_are_python_floats(self):
        for mu, L in ((2.0, 8), (0.5, 10), (2.0, 1024)):
            cp = theta_critical_finite(mu, L)
            assert all(type(getattr(cp, f.name)) is float for f in dataclasses.fields(cp))

    def test_euler_lagrange_on_ring_angles(self):
        # both equations as sums over the L ring angles 2 pi k/L, which as a
        # set are the L/2 mode nodes the solver averages over
        mu, L = 2.0, 8
        cp = theta_critical_finite(mu, L)
        ang = 2.0 * np.pi * np.arange(1, L + 1) / L
        r = np.abs(cp.x * np.cos(ang))  # x h'(r^2) as x tanh(r)/r, 1 at r = 0
        xhp = cp.x * np.divide(np.tanh(r), r, out=np.ones_like(r), where=r != 0)
        assert abs(mu * (cp.W_star - 1) - 2.0 * np.mean(xhp * np.cos(ang) ** 2)) <= 1e-8
        assert abs(mu * cp.W_star - 2.0 * np.mean(xhp * np.sin(ang) ** 2)) <= 1e-8

    def test_solution_exists_and_is_bounded_across_grid(self):
        for mu in (0.3, 1.0, 3.0):
            for L in (8, 12, 16, 6, 10, 14):
                cp = theta_critical_finite(mu, L)
                if L % 4 == 2 and mu >= 2 * mu_critical(L):
                    assert cp is None
                    continue
                assert cp is not None
                assert 0 < cp.theta_c < 1.0 / mu


class TestStiffnessDomain:
    """Every routine that takes theta_c's stiffness, or the zero-temperature
    optimum's, checks it by one rule with one message: finite mu from 1e-8,
    up to 200 but on a finite ring. The dimer searches run far above theta_c,
    where they take the 1-periodic root (below it they raise for mu < 1e-7),
    and their ModelParams refuses a mu that is not positive and finite first."""

    ENTRIES = {
        "theta_critical_finite": (lambda mu: theta_critical_finite(mu, 8), math.inf),
        "minimize_dimer_finite":
            (lambda mu: minimize_dimer_finite(ModelParams(mu=mu, theta=1e9, L=8)), math.inf),
        "theta_critical_thermo": (thermodynamic.theta_critical_thermo, 200.0),
        "bifurcation_data": (thermodynamic.bifurcation_data, 200.0),
        "minimize_dimer_thermo":
            (lambda mu: thermodynamic.minimize_dimer_thermo(ModelParams(mu=mu, theta=1e9)), 200.0),
        "dimer_optimum_zero": (zero_temperature.dimer_optimum_zero, 200.0),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_one_rule(self, entry):
        call, top = self.ENTRIES[entry]
        outside = (0.0, -1.0, 0.99e-8, math.nan, math.inf, -math.inf)
        for mu in outside + ((200.5,) if top < math.inf else ()):
            message = (f"validated for finite mu in [1e-08, {top:g}], got {mu}"
                       if "minimize" not in entry or 0 < mu < math.inf
                       else "stiffness must be positive and finite")
            with pytest.raises(ValueError, match=re.escape(message)):
                call(mu)
        for mu in (1e-8, 200.0) + ((200.5,) if top == math.inf else ()):
            call(mu)


class TestCriticalPointHessian:
    """theta_critical_finite against the exact gradient and Hessian of the
    full L-atom energy (_ring_derivatives, one eigh), which share neither
    J_finite's tanh sum nor the mode nodes. At (W*, theta_c) the uniform
    ring is stationary and its staggered mode (-1)^i goes soft, while every
    other mode stays stiff: the instability is 2-periodic.

    Measured: |g| <= 9.7e-15 (bound 1e-13); the staggered eigenvalue is at
    most 4.6e-13 in modulus at theta_c (bound 5e-12), and -/+ 3.5e-7 to
    1.6e-6 at theta_c (1 -/+ 1e-6) (bound 1e-7); the next eigenvalue is
    2.2e-3 to 1.14 (bound 1e-3).
    """

    @pytest.mark.parametrize("mu, L", [(1.0, 4), (2.0, 8), (0.5, 12), (2.0, 16),
                                       (2.0, 64), (3.0, 128), (1.5, 256)])
    def test_staggered_mode_goes_soft_at_theta_c(self, mu, L):
        cp = theta_critical_finite(mu, L)
        t = np.full(L, cp.W_star)
        s = (-1.0) ** np.arange(L) / math.sqrt(L)
        _, g, H = _ring_derivatives(t, mu, cp.theta_c)
        lam = s @ H @ s
        assert np.linalg.norm(g) <= 1e-13
        assert np.linalg.norm(H @ s - lam * s) <= 1e-13
        assert abs(lam) <= 5e-12
        w = np.linalg.eigvalsh(H)
        assert np.all(np.delete(w, np.argmin(np.abs(w - lam))) > 1e-3)
        for factor, sign in ((1 - 1e-6, -1), (1 + 1e-6, 1)):
            H = _ring_derivatives(t, mu, cp.theta_c * factor)[2]
            assert sign * (s @ H @ s) > 1e-7

    @pytest.mark.parametrize("theta", [1e-3, 1e-2])
    def test_l6_threshold_is_twice_mu_critical(self, theta):
        # the staggered eigenvalue of the stationary uniform ring of 6 atoms
        # is -/+ 2.2e-4 at mu = 2 mu_critical(6) (1 -/+ 1e-3) (bound 2e-5)
        s = (-1.0) ** np.arange(6) / math.sqrt(6)
        for factor, sign in ((1 - 1e-3, -1), (1 + 1e-3, 1)):
            mu = 2 * mu_critical(6) * factor
            W = scipy.optimize.brentq(
                lambda W: _ring_derivatives(np.full(6, W), mu, theta)[1][0], 1.0, 10.0,
                xtol=1e-14)
            H = _ring_derivatives(np.full(6, W), mu, theta)[2]
            assert sign * (s @ H @ s) > 2e-5


class TestThermodynamicLimit:
    """theta_c(L) -> theta_c(inf) at the trapezoid rule's exponential rate.

    J_finite is the L/2-node trapezoid rule of J_thermo's integrand (half
    of it on the shifted nodes for L = 2 mod 4), whose poles at
    t = +-i eta, eta = asinh(pi / (2 x)), set its error: so
    theta_c(L) / theta_c(inf) - 1 = +-K(mu) e^(-eta L), + for L = 0 mod 4.
    The two routines share _critical_point but neither J nor the band mean.

    Each window runs over L = 0 mod 4 until e^(eta L) ~ 1e10, where one ulp
    of theta_c moves K by ~2e-6; past it the rounding floor takes over
    (K(1) reads 5.21402 at L = 60). Measured: K(0.5) = 7.308750-7.308790
    (spread 3.9e-5), K(1) = 5.213653-5.213866 (2.13e-4), K(2) =
    4.246115-4.246676 (5.61e-4), and -4.246676 at L = 102. The bound is
    twice the spread. J_finite scaled by 1 + 1e-10 moves K at each
    window's top by 0.41, 1.3 and 0.97.
    """

    # mu -> (window of L, K, measured spread of K over the window)
    LAW = {0.5: (range(24, 33, 4), 7.30879, 3.9e-5),
           1.0: (range(32, 53, 4), 5.21387, 2.13e-4),
           2.0: (range(64, 113, 4), 4.24667, 5.61e-4)}

    @staticmethod
    def _K(mu, L):
        inf = thermodynamic.theta_critical_thermo(mu)
        eta = math.asinh(math.pi / (2 * inf.x))
        return (theta_critical_finite(mu, L).theta_c / inf.theta_c - 1) * math.exp(eta * L)

    @pytest.mark.parametrize("mu", sorted(LAW))
    def test_exponential_approach(self, mu):
        Ls, K, spread = self.LAW[mu]
        ks = [self._K(mu, L) for L in Ls]
        assert max(ks) - min(ks) <= 2 * spread
        assert all(abs(k - K) <= 2 * spread for k in ks)

    def test_2_mod_4_ring_approaches_from_below(self):
        _, K, spread = self.LAW[2.0]
        assert abs(self._K(2.0, 102) + K) <= 2 * spread
