"""Ground-state limit: closed forms, the exponentially small gap, rate fits."""

import math

import pytest
import scipy.special

from peierls.finite_chain import DimerState, ModelParams
from peierls.kernels import elliptic_side
from peierls.numerics import Tolerance, minimize_box
from peierls.thermodynamic import g_thermo
from peierls.zero_temperature import (dimer_optimum_zero, g_zero,
                                      gap_rate_fit, periodic_optimum_zero)

# scipy Nelder-Mead oracle at mu = 2 (xatol 1e-13): full 2D optimum
GAP_MU2 = 6.839373e-03
DELTA_OPT_MU2 = 0.1900463
F0_MU2 = -1.6853636526


class TestGZero:
    def test_uniform_closed_form(self):
        for mu, W in ((0.5, 0.7), (2.0, 1.3), (8.0, 1.0)):
            val = g_zero(DimerState(W=W, delta=0.0), mu)
            assert val == pytest.approx(mu / 2 * (W - 1) ** 2 - 4 * W / math.pi, abs=1e-10)

    def test_equal_amplitudes_constant_integrand(self):
        c, mu = 0.8, 2.0
        val = g_zero(DimerState(W=c, delta=c), mu)
        assert val == pytest.approx(mu / 2 * ((c - 1) ** 2 + c * c) - 2 * c, abs=1e-10)

    def test_matches_cold_thermal_limit(self):
        s = DimerState(W=1.0, delta=0.1)
        cold = g_thermo(s, ModelParams(mu=2.0, theta=1e-4))
        assert g_zero(s, 2.0) == pytest.approx(cold, abs=1e-3)

    def test_swap_identity(self):
        from peierls.zero_temperature import _g_zero_raw
        mu, W, d = 1.5, 1.2, 0.4
        lhs = _g_zero_raw(W, d, mu)
        rhs = _g_zero_raw(d, W, mu) + mu / 2 * (
            (W - 1) ** 2 - (d - 1) ** 2 + d * d - W * W)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_elliptic_integral_consistency(self):
        # the band term is W E(1 - (delta/W)^2) in disguise
        from peierls.zero_temperature import _g_zero_raw
        mu = 2.0
        for W, d in ((1.0, 0.2), (1.5, 0.9), (0.9, 0.0)):
            g = _g_zero_raw(W, d, mu)
            band = mu / 2 * ((W - 1) ** 2 + d * d) - g
            want = 4 / math.pi * W * elliptic_side((d / W) ** 2)
            assert band == pytest.approx(want, abs=1e-8)

    def test_against_scipy_ellipe(self):
        # band term (4/pi) M E(1 - m^2/M^2) with M = max(W, delta), m = min:
        # the simplex probes delta > W, and delta/W = 1e-8 sits next to the
        # E(1) = 1 endpoint, where the arithmetic-geometric mean diverges
        from peierls.zero_temperature import _g_zero_raw
        mu = 2.0
        for W, d in ((0.3, 1.1), (0.9, 1.0), (1.3, 1.3e-8), (1.3e-8, 1.3)):
            band = mu / 2 * ((W - 1) ** 2 + d * d) - _g_zero_raw(W, d, mu)
            big, small = max(W, d), min(W, d)
            want = 4 / math.pi * big * float(scipy.special.ellipe(1 - (small / big) ** 2))
            assert band == pytest.approx(want, rel=1e-14, abs=0)
        assert _g_zero_raw(0.0, 0.0, mu) == mu / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            g_zero(DimerState(W=1.0, delta=0.0), 0.0)


class TestPeriodicOptimum:
    def test_closed_form_mu2(self):
        W1, f0_per = periodic_optimum_zero(2.0)
        assert W1 == pytest.approx(1 + 2 / math.pi, abs=1e-14)
        assert f0_per == pytest.approx(-4 / math.pi - 4 / math.pi ** 2, abs=1e-14)

    def test_stiff_limit(self):
        W1, f0_per = periodic_optimum_zero(1e8)
        assert W1 == pytest.approx(1.0, abs=1e-7)
        assert f0_per == pytest.approx(-4 / math.pi, abs=1e-7)

    def test_agrees_with_1d_minimization(self):
        tol = Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=600)
        for mu in (0.5, 2.0, 8.0):
            W1, f0_per = periodic_optimum_zero(mu)
            f = lambda z, m=mu: g_zero(DimerState(W=max(z[0], 0.0), delta=0.0), m)
            x, val = minimize_box(f, [1.2], [0.0], tol)
            for step in (1e-5, 1e-7):  # restarts unstick the shrunken simplex
                x, val = minimize_box(f, x, [0.0], tol, initial_step=step)
            assert x[0] == pytest.approx(W1, abs=1e-8)
            assert val == pytest.approx(f0_per, abs=1e-8)


class TestDimerOptimum:
    def test_reference_mu2(self):
        r = dimer_optimum_zero(2.0)
        assert r.gap == pytest.approx(GAP_MU2, rel=1e-4)
        assert r.delta_opt == pytest.approx(DELTA_OPT_MU2, abs=1e-5)
        assert r.f0 == pytest.approx(F0_MU2, abs=1e-8)
        assert r.resolved

    def test_delta_scale_near_heuristic(self):
        r = dimer_optimum_zero(2.0)
        guess = math.exp(-(math.pi / 2 + 0.5))
        assert guess / 3 <= r.delta_opt <= 3 * guess

    def test_soft_chain_large_gap(self):
        r = dimer_optimum_zero(0.5)
        assert 0.1 < r.gap < 0.3

    def test_gap_bounded_by_exponential(self):
        r = dimer_optimum_zero(6.0)
        assert 0 < r.gap <= math.exp(-math.pi * 6 / 2)

    def test_gap_result_fields_consistent(self):
        r = dimer_optimum_zero(3.0)
        assert r.gap == pytest.approx(r.f0_per - r.f0, abs=1e-15)
        assert r.W1 == pytest.approx(1 + 4 / (math.pi * 3.0), abs=1e-14)

    def test_dimerized_beats_uniform_up_to_mu6(self):
        for mu in (0.5, 1.0, 2.0, 4.0, 6.0):
            r = dimer_optimum_zero(mu)
            assert r.f0 < r.f0_per
            assert r.delta_opt > 0


class TestGapRateFit:
    def test_rate_near_minus_half_pi(self):
        slope, intercept = gap_rate_fit([3.0, 4.0, 5.0, 6.0])
        assert slope == pytest.approx(-math.pi / 2, abs=0.08)
        assert abs(intercept) < 3

    def test_pairwise_slopes_consistent(self):
        gaps = {mu: dimer_optimum_zero(mu).gap for mu in (3.0, 4.0, 5.0, 6.0)}
        mus = sorted(gaps)
        slopes = [(math.log(gaps[b]) - math.log(gaps[a])) / (b - a)
                  for a, b in zip(mus, mus[1:])]
        for s0, s1 in zip(slopes, slopes[1:]):
            assert abs(s1 - s0) <= 0.1 * abs(s0)
        assert all(s < 0 for s in slopes)

    def test_underdetermined_fit_rejected(self):
        with pytest.raises(ValueError):
            gap_rate_fit([3.0])

    def test_noise_floor_points_excluded(self):
        # past mu = 8 the measured gap is quadrature noise and must not
        # steer the fit
        r = dimer_optimum_zero(12.0)
        assert not r.resolved
        with_noise = gap_rate_fit([3.0, 4.0, 5.0, 6.0, 12.0])
        clean = gap_rate_fit([3.0, 4.0, 5.0, 6.0])
        assert with_noise == pytest.approx(clean, abs=1e-12)
