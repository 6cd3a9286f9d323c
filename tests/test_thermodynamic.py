"""Infinite-ring limit: quadrature energies, theta_c, constants, bifurcation."""

import math

import numpy as np
import pytest
import scipy.integrate

import peierls.thermodynamic as thermo
from peierls.finite_chain import DimerState, ModelParams, g_finite
from peierls.numerics import Tolerance
from peierls.thermodynamic import (J_thermo, asymptotic_constants,
                                   bifurcation_data, g_thermo,
                                   minimize_dimer_thermo, phase_diagram,
                                   theta_critical_thermo)

# 30-digit reference: root of J(x) = 2 and the cos^2 equation
THETA_C_MU2 = 0.210440067907
W_STAR_MU2 = 1.63220047639
X_STAR_MU2 = 7.75612977425
# 30-digit quadrature of the energy integrand at (W, delta) = (1, 0.2)
G_THERMO_REF = -1.29786587712935485592
# 30-digit quadrature of J at large x; 1e6 and 1.08e7 are the x of theta_c
# near mu = 17 and mu = 20
J_THERMO_LARGE_X = {1e4: 11.1055361539759261877550664533,
                    1e5: 14.0372785417181952770952694944,
                    1e6: 16.9690209371581518224045690222,
                    1.08e7: 19.9987531736535922774146768837}
# room for the forced mode mean past its usual starting-N cap
WIDE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=1 << 17)


def _by_each_rule(monkeypatch, fn):
    """fn() under the default rule, forced onto the mode mean, forced onto GK15."""
    default = fn()
    monkeypatch.setattr(thermo, "_MODE_N0_MAX", 1 << 16)
    mode = fn()
    monkeypatch.setattr(thermo, "_MODE_N0_MAX", 4)
    gk15 = fn()
    monkeypatch.undo()
    return default, mode, gk15


class TestGThermo:
    def test_constant_integrand(self):
        p = ModelParams(mu=3.0, theta=0.5)
        val = g_thermo(DimerState(W=0.0, delta=0.0), p)
        assert val == pytest.approx(3.0 / 2 - 2 * 0.5 * math.log(2), abs=1e-12)

    def test_reference_point(self):
        p = ModelParams(mu=2.0, theta=0.1)
        val = g_thermo(DimerState(W=1.0, delta=0.2), p)
        assert val == pytest.approx(G_THERMO_REF, abs=1e-11)

    def test_riemann_limit_of_finite_ring(self):
        pL = ModelParams(mu=2.0, theta=0.1, L=4096)
        p = ModelParams(mu=2.0, theta=0.1)
        s = DimerState(W=1.0, delta=0.2)
        assert g_thermo(s, p) == pytest.approx(g_finite(s, pL), abs=1e-3)

    def test_integral_term_swap_symmetric(self):
        # the integrand is symmetric under s -> pi/2 - s, so exchanging W
        # and delta only moves the elastic part:
        # g(W,d) - g(d,W) = (mu/2)[(W-1)^2 - (d-1)^2 + d^2 - W^2]
        from peierls.thermodynamic import _QUAD_TOL, _g_thermo_raw
        mu, th, W, d = 2.0, 0.25, 1.4, 0.3
        g_wd = _g_thermo_raw(W, d, mu, th, _QUAD_TOL)
        g_dw = _g_thermo_raw(d, W, mu, th, _QUAD_TOL)
        want = mu / 2 * ((W - 1) ** 2 - (d - 1) ** 2 + d * d - W * W)
        assert g_wd - g_dw == pytest.approx(want, abs=1e-11)

    def test_riemann_convergence_is_fast(self):
        # the integrand is analytic and periodic, so the mode sum converges
        # geometrically; by N = 64 the difference sits at roundoff, far
        # below any K/N envelope
        s = DimerState(W=1.0, delta=0.2)
        p = ModelParams(mu=2.0, theta=0.1)
        ref = g_thermo(s, p)
        for N in (64, 128, 256, 512):
            val = g_finite(s, ModelParams(mu=2.0, theta=0.1, L=2 * N))
            assert abs(val - ref) <= 1e-9

    def test_rules_agree_across_switch(self, monkeypatch):
        # with delta = 0 the strip half-width is asinh(pi theta / (2 W)); the
        # mode mean serves it while its starting N, >= 15/eta, is <= 4096,
        # so GK15 takes the colder side of the switch
        W = 1.2
        switch = 2.0 * W * math.sinh(15.0 / 4096) / math.pi
        for theta, delta, rule in ((0.97 * switch, 0.0, 2), (1.03 * switch, 0.0, 1),
                                   (0.97 * switch, 1e-4, 2), (1.03 * switch, 1e-4, 1)):
            s, p = DimerState(W=W, delta=delta), ModelParams(mu=2.0, theta=theta)
            vals = _by_each_rule(monkeypatch, lambda: g_thermo(s, p, WIDE_TOL))
            assert vals[0] == vals[rule]
            assert vals[1] == pytest.approx(vals[2], rel=1e-12, abs=0)


class TestJThermo:
    def test_zero(self):
        assert J_thermo(0.0) == 0.0

    def test_positive_and_ordered(self):
        assert 0 < J_thermo(10.0) < J_thermo(20.0)

    def test_strictly_increasing_grid(self):
        xs = np.arange(0.0, 100.0001, 0.1)
        vals = np.array([J_thermo(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0)

    def test_matches_scipy_quadrature(self):
        for x in (0.5, 3.0, 12.0):
            def f(s):
                c = math.cos(s)
                return (math.tanh(x * c) / c if c > 1e-9 else x) * math.cos(2 * s)
            want = -4 / math.pi * scipy.integrate.quad(f, 0, math.pi / 2,
                                                       epsabs=1e-13, limit=300)[0]
            assert J_thermo(x) == pytest.approx(want, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            J_thermo(-0.5)

    def test_large_x_against_mpmath(self):
        # the band-center series must be chosen by u = x cos s, not by cos s:
        # at x = 1e7 a cos s below 1e-6 still means u up to 10
        for x, want in J_THERMO_LARGE_X.items():
            assert J_thermo(x) == pytest.approx(want, rel=1e-9)

    def test_large_x_to_machine_precision(self):
        # integrating in t = pi/2 - s, with sin t for cos s, keeps |cos s|
        # precise near the band center, where the integrand is ~x
        for x, want in J_THERMO_LARGE_X.items():
            assert J_thermo(x) == pytest.approx(want, rel=1e-13, abs=0)

    def test_rules_agree_across_switch(self, monkeypatch):
        # the mode mean serves x while its starting N, the power of two
        # >= 15 / asinh(pi / (2x)), is <= 4096: up to x = 428.9
        for x, rule in ((420.0, 1), (440.0, 2)):
            vals = _by_each_rule(monkeypatch, lambda: J_thermo(x, WIDE_TOL))
            assert vals[0] == vals[rule]
            assert vals[1] == pytest.approx(vals[2], rel=1e-12, abs=0)


class TestThetaCritical:
    def test_reference_value(self):
        cp = theta_critical_thermo(2.0)
        assert cp.theta_c == pytest.approx(THETA_C_MU2, abs=1e-9)
        assert cp.W_star == pytest.approx(W_STAR_MU2, abs=1e-8)
        assert cp.x == pytest.approx(X_STAR_MU2, abs=1e-7)

    def test_bounded_by_inverse_stiffness(self):
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
            cp = theta_critical_thermo(mu)
            assert 0 < cp.theta_c < 1.0 / mu

    def test_euler_lagrange_residuals(self):
        from peierls.thermodynamic import _QUAD_TOL, _first_integral, _second_integral
        for mu in (1.0, 2.0, 6.0):
            cp = theta_critical_thermo(mu)
            r1 = mu * (cp.W_star - 1) - _first_integral(cp.x, _QUAD_TOL)
            r2 = mu * cp.W_star - _second_integral(cp.x, _QUAD_TOL)
            assert abs(r1) <= 1e-8
            assert abs(r2) <= 1e-8

    def test_corrected_asymptotic_relation(self):
        # theta_c * e^{pi mu/4} = W* e^{c2 - 1} up to an exponentially small
        # remainder; the W* prefactor (1 + 4/(pi mu)) decays only like 1/mu
        C = asymptotic_constants().C_prefactor
        for mu in (8.0, 10.0, 12.0, 16.0, 18.0, 20.0):
            cp = theta_critical_thermo(mu)
            ratio = cp.theta_c * math.exp(math.pi * mu / 4)
            assert ratio / (cp.W_star * C) == pytest.approx(1.0, abs=1e-4)

    def test_finite_rings_converge_here(self):
        # theta_c of rings with L = 0 mod 4 approaches the infinite-ring
        # value with a shrinking gap, already below 1e-3 by L = 256
        from peierls.finite_chain import theta_critical_finite
        target = theta_critical_thermo(2.0).theta_c
        gaps = [abs(theta_critical_finite(2.0, L).theta_c - target)
                for L in (16, 64, 256)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_critical_thermo(0.0)
        with pytest.raises(ValueError):
            theta_critical_thermo(1e6)


class TestConstants:
    def test_c1(self):
        c = asymptotic_constants()
        assert c.c1 == pytest.approx(0.818780140172023, abs=1e-10)
        assert c.c1 == pytest.approx(0.8188, abs=5e-4)

    def test_c2_relation(self):
        c = asymptotic_constants()
        assert c.c2 == c.c1 + math.log(2) - 1
        assert c.c2 == pytest.approx(0.512, abs=1e-3)

    def test_prefactor(self):
        c = asymptotic_constants()
        assert c.C_prefactor == pytest.approx(math.exp(c.c2 - 1), rel=1e-14)
        assert c.C_prefactor == pytest.approx(0.61385, abs=5e-4)

    def test_c1_against_scipy(self):
        head = scipy.integrate.quad(lambda u: math.tanh(u) / u if u else 1.0,
                                    0, 1, epsabs=1e-13)[0]
        tail = scipy.integrate.quad(lambda u: (math.tanh(u) - 1) / u,
                                    1, 60, epsabs=1e-13, limit=200)[0]
        assert asymptotic_constants().c1 == pytest.approx(head + tail, abs=1e-10)


class TestMinimizeDimerThermo:
    def test_above_transition_uniform(self):
        state, _ = minimize_dimer_thermo(ModelParams(mu=2.0, theta=0.3))
        assert state.delta == 0.0

    def test_below_transition_dimerized(self):
        state, val = minimize_dimer_thermo(ModelParams(mu=2.0, theta=0.1))
        assert state.delta > 0.1
        # scipy Nelder-Mead oracle: W=1.6280198583, d=0.1838447902
        assert state.W == pytest.approx(1.6280198583, abs=2e-6)
        assert state.delta == pytest.approx(0.1838447902, abs=2e-6)
        assert val == pytest.approx(-1.685609948199, abs=1e-9)

    def test_hot_at_inverse_stiffness(self):
        state, _ = minimize_dimer_thermo(ModelParams(mu=1.0, theta=1.5))
        assert state.delta == 0.0


class TestBifurcationData:
    def test_moment_signs_and_cauchy_schwarz(self):
        for mu in (1.0, 2.0, 4.0):
            b = bifurcation_data(mu)
            assert b.A < 0 and b.B < 0 and b.C_int < 0
            assert b.B * b.B <= b.A * b.C_int
            assert b.det_J > 0
            assert b.delta_prime < 0
            assert b.coeff == pytest.approx(math.sqrt(-b.delta_prime), rel=1e-14)

    def test_moments_match_scipy(self):
        from peierls.kernels import h_eval
        cp = theta_critical_thermo(2.0)
        r = cp.W_star / cp.theta_c
        b = bifurcation_data(2.0)
        for got, power in ((b.A, 0), (b.B, 1), (b.C_int, 2)):
            def f(s):
                return (h_eval((r * math.cos(s)) ** 2).h_second
                        * math.sin(s) ** (2 * power) * math.cos(s) ** (4 - 2 * power))
            want = 4 / math.pi * scipy.integrate.quad(f, 0, math.pi / 2,
                                                      epsabs=1e-13, limit=300)[0]
            assert got == pytest.approx(want, abs=1e-9)

    def test_reference_values_mu2(self):
        b = bifurcation_data(2.0)
        assert b.A == pytest.approx(-0.00133568, abs=2e-7)
        assert b.B == pytest.approx(-0.00214321, abs=2e-7)
        assert b.C_int == pytest.approx(-0.06575004, abs=2e-7)
        assert b.det_J == pytest.approx(0.373093, abs=2e-5)
        assert b.delta_prime == pytest.approx(-0.527792, abs=2e-5)
        assert b.coeff == pytest.approx(0.72649273, abs=2e-6)


class TestPhaseDiagram:
    def test_single_point(self):
        rows = phase_diagram([2.0])
        assert rows[0][0] == 2.0
        assert rows[0][1] == pytest.approx(THETA_C_MU2, abs=1e-8)

    def test_strictly_decreasing(self):
        rows = phase_diagram([1.0, 2.0, 4.0])
        thetas = [t for _, t in rows]
        assert thetas[0] > thetas[1] > thetas[2]

    def test_bad_point_recorded_not_fatal(self):
        rows = phase_diagram([2.0, -1.0])
        assert rows[0][1] > 0
        assert math.isnan(rows[1][1])
