"""Ground-state limit: closed forms, the exponentially small gap, rate fits."""

import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.special

import peierls.numerics
import peierls.zero_temperature as zero_temperature
from peierls.finite_chain import DimerState, ModelParams
from peierls.kernels import elliptic_side
from peierls.thermodynamic import g_thermo
from peierls.zero_temperature import (dimer_optimum_zero, g_zero,
                                      gap_rate_fit, periodic_optimum_zero)

# scipy Nelder-Mead oracle at mu = 2 (xatol 1e-13): full 2D optimum
GAP_MU2 = 6.839373e-03
DELTA_OPT_MU2 = 0.1900463
F0_MU2 = -1.6853636526

# mu -> (gap, delta_opt, f0) from mpmath at 2.5 mu + 120 digits (at least
# 125): findroot of the Euler-Lagrange difference
# (4/pi)[(1 + q^2) K - 2E]/(1 - q^2) = mu in v = ln(1/q), q = delta/W, with
# mpmath's ellipk and ellipe; W = (4/(pi mu))(K - E)/(1 - q^2), and the gap
# is f0_per - g0(W, delta) by plain subtraction at that precision. The gaps
# for mu <= 30 agree in all 17 digits with an independent 2-D findroot,
# and at mu = 2 and 4 the gradient of g0 by mpmath quadrature vanishes to
# 1e-50 there.
GAP_REFERENCES = {
    2.0: (6.839373331378686e-3, 1.9004625994429502e-1, -1.6853636526358925),
    4.0: (2.3023166373503766e-4, 3.0911801675603692e-2, -1.4761121436835733),
    8.0: (3.7707874866650039e-7, 1.1718267927112885e-3, -1.3745611054562491),
    12.0: (6.7193885635197218e-10, 4.8321194577362843e-5, -1.3407870011686601),
    16.0: (1.2247153604669188e-12, 2.0380715442614734e-6, -1.3239001365575563),
    20.0: (2.2533688098552439e-15, 8.6774654484138596e-8, -1.3137680181921),
    30.0: (3.3281162791004839e-22, 3.3014140137111062e-11, -1.3002585270397861),
    200.0: (3.4269900164074433e-138, 3.291617605342294e-69, -1.2772923920808562),
}
# mu -> (W, delta_opt, gap) below the domain's tested range, from 80-digit
# mpmath: the same findroot, with 1 - q^2 as -expm1(-2v). There q -> 1 and
# the Euler-Lagrange difference is a small difference of O(1) terms.
# GapResult carries no W; delta_opt = q W carries its error.
SMALL_MU_REFERENCES = {
    1e-4: (10001.499925013746954, 9999.5000249962508279, 1894.0320940657434655),
    1e-6: (1000001.4999992500014, 999999.50000024999963, 189430.25762200309304),
    1e-8: (100000001.4999999925, 99999999.5000000025, 18943052.81289024061),
}
# mu -> (gap / ((16/pi) e^-4 W1 e^(-pi mu/2)) - 1,
#        delta_opt / (4 W1 e^(-2 - pi mu/4)) - 1), 60-digit mpmath
LAW_DEVIATIONS = {
    4.0: (2.55e-3, 2.33e-3),
    8.0: (8.75e-6, 8.32e-6),
    12.0: (2.38e-8, 2.30e-8),
    16.0: (5.85e-11, 5.69e-11),
    20.0: (1.35e-13, 1.32e-13),
    30.0: (3.02e-20, 2.98e-20),
}


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
        # a NaN stiffness returned nan, and periodic_optimum_zero(inf) a value
        for mu in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                g_zero(DimerState(W=1.0, delta=0.0), mu)
            with pytest.raises(ValueError, match="positive and finite"):
                periodic_optimum_zero(mu)


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
        # scipy's bounded Brent search as the independent reference
        for mu in (0.5, 2.0, 8.0):
            W1, f0_per = periodic_optimum_zero(mu)
            r = scipy.optimize.minimize_scalar(
                lambda W, m=mu: g_zero(DimerState(W=W, delta=0.0), m),
                method="bounded", bounds=(0.5, 5.0), options={"xatol": 1e-12})
            assert r.x == pytest.approx(W1, abs=1e-8)
            assert r.fun == pytest.approx(f0_per, abs=1e-8)


class TestDimerOptimum:
    def test_reference_mu2(self):
        r = dimer_optimum_zero(2.0)
        assert r.gap == pytest.approx(GAP_MU2, rel=1e-4)
        assert r.delta_opt == pytest.approx(DELTA_OPT_MU2, abs=1e-5)
        assert r.f0 == pytest.approx(F0_MU2, abs=1e-8)

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

    def test_stiffness_past_domain_rejected(self):
        with pytest.raises(ValueError, match="validated for"):
            gap_rate_fit([3.0, 4.0, 250.0])


class TestDimerOptimumExact:
    # relative bounds, each about 4x the largest error measured against the
    # references: gap 4.2e-14 (mu = 200), delta 7.6e-15 (mu = 20), f0
    # 2.2e-16, and 2.0e-15 below the tested range (the gap at mu = 1e-4)
    @pytest.mark.parametrize("mu", sorted(GAP_REFERENCES))
    def test_matches_mpmath(self, mu):
        gap, delta, f0 = GAP_REFERENCES[mu]
        r = dimer_optimum_zero(mu)
        assert r.gap == pytest.approx(gap, rel=1.7e-13, abs=0)
        assert r.delta_opt == pytest.approx(delta, rel=3e-14, abs=0)
        assert r.f0 == pytest.approx(f0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("mu", sorted(SMALL_MU_REFERENCES))
    def test_small_mu_without_cancellation(self, mu):
        _, delta, gap = SMALL_MU_REFERENCES[mu]
        r = dimer_optimum_zero(mu)
        assert r.delta_opt == pytest.approx(delta, rel=8e-15, abs=0)
        assert r.gap == pytest.approx(gap, rel=8e-15, abs=0)

    @pytest.mark.parametrize("mu", sorted(LAW_DEVIATIONS))
    def test_prefactor_law(self, mu):
        # each deviation within half a unit of its third digit, plus 1e-13
        # for the double-precision evaluation
        r = dimer_optimum_zero(mu)
        law_gap = 16 / math.pi * math.exp(-4) * r.W1 * math.exp(-math.pi * mu / 2)
        law_delta = 4 * r.W1 * math.exp(-2 - math.pi * mu / 4)
        for got, want in zip((r.gap / law_gap - 1, r.delta_opt / law_delta - 1),
                             LAW_DEVIATIONS[mu]):
            assert abs(got - want) <= 5e-3 * want + 1e-13

    def test_no_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dimer_optimum_zero must not search")
        monkeypatch.setattr(peierls.numerics, "minimize_box", forbidden)
        mus = np.arange(0.5, 30.0 + 1e-9, 0.5)
        t0 = time.perf_counter()
        for mu in mus:
            r = dimer_optimum_zero(float(mu))
            assert 0 < r.gap and 0 < r.delta_opt < r.W1
        assert (time.perf_counter() - t0) / mus.size < 1e-3

    def test_newton_evaluations(self, monkeypatch):
        # each Newton iterate costs one arithmetic-geometric mean, and its
        # K, E and S are reused for the result: at most 5 over the domain
        calls = []
        elliptic_ke = zero_temperature._elliptic_ke
        monkeypatch.setattr(zero_temperature, "_elliptic_ke",
                            lambda a: calls.append(a) or elliptic_ke(a))
        most = 0
        for mu in np.geomspace(1e-8, 200.0, 10001):
            calls.clear()
            assert dimer_optimum_zero(float(mu)).gap > 0
            most = max(most, len(calls))
        assert most <= 5

    def test_newton_budget_raises_with_best(self, monkeypatch):
        # one step takes v = ln(W/delta) from 2.6e-3 off the root of
        # D(v) = mu to 1.4e-7 off; D from scipy's ellipk and ellipe here
        def difference(v):
            m = -math.expm1(-2 * v)
            return 4 / math.pi * ((2 - m) * scipy.special.ellipk(m)
                                  - 2 * scipy.special.ellipe(m)) / m
        root = scipy.optimize.brentq(lambda v: difference(v) - 4.0, 1.0, 5.0, xtol=1e-15)
        monkeypatch.setattr(zero_temperature, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(peierls.numerics.ConvergenceError, match="1 Newton steps") as err:
            dimer_optimum_zero(4.0)
        assert abs(err.value.best - root) <= 1e-6

    def test_domain(self):
        assert dimer_optimum_zero(200.0).gap > 0
        assert dimer_optimum_zero(1e-8).gap > 0
        # 1e-160 would overflow to an all-nan result
        for bad in (0.0, -1.0, 0.99e-8, 1e-160, 200.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                dimer_optimum_zero(bad)
