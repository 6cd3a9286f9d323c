"""Infinite-ring limit: quadrature energies, theta_c, constants, bifurcation."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special

import peierls.numerics as numerics
import peierls.thermodynamic as thermodynamic
from peierls.finite_chain import DimerState, ModelParams, g_finite
from peierls.sweep import SweepSpec, run_sweep
from peierls.thermodynamic import (J_thermo, asymptotic_constants,
                                   bifurcation_data, g_thermo,
                                   minimize_dimer_thermo, theta_critical_thermo)
from peierls.zero_temperature import dimer_optimum_zero

# 30-digit reference: root of J(x) = 2 and the cos^2 equation
THETA_C_MU2 = 0.210440067907
W_STAR_MU2 = 1.63220047639
X_STAR_MU2 = 7.75612977425
# 30-digit quadrature of the energy integrand at (W, delta) = (1, 0.2)
G_THERMO_REF = -1.29786587712935485592
# 30-digit quadrature of J at large x; 1e6, 1.08e7, 1e18 and 1e30 are the x
# of theta_c near mu = 17, 20, 52 and 87
J_THERMO_LARGE_X = {1e4: 11.1055361539759261877550664533,
                    1e5: 14.0372785417181952770952694944,
                    1e6: 16.9690209371581518224045690222,
                    1.08e7: 19.9987531736535922774146768837,
                    1e18: 52.1499296833698979861348187200,
                    1e30: 87.3308384295824295480286152515}
# 30-digit theta_c past mu = 20: roots of J(x) = mu and the cos^2 equation
# (the sin^2 equation holds to 1e-43); x reaches 2.7e68 at mu = 200
THETA_C_LARGE_MU = {30.0: 3.74336082908025573638905028009e-11,
                    50.0: 5.54943870880153574017550531720e-18,
                    100.0: 4.83190720317855022792691924055e-35,
                    200.0: 3.73225301551879838718073436135e-69}
# 40-digit theta_c at mu = 16 (x = 467167.5695...), by the same two equations;
# the root solve this closed form replaced missed it by 7.1e-13 relative
THETA_C_MU16 = 2.310899860954310837551456454519401381494e-06
# 30-digit bifurcation coefficients; the moment A is -9.6e-10 at mu = 8, -7.7e-14 at 12
BIFURCATION_COEFF = {8.0: 0.0558301959974501144490521535808,
                     12.0: 0.0113371274276400429433500650054}
# 30-digit dimerized minima at mu = 2 by mpmath alone: the roots of the
# Euler-Lagrange pair G1 = mu (W - 1) - 8 W <h_theta'(y) sin^2 t> = 0 and
# G2 = mu - 8 <h_theta'(y) cos^2 t> = 0 (the delta equation with delta
# factored out), y = 4 W^2 sin^2 t + 4 delta^2 cos^2 t and h_theta(y) =
# 2 theta ln 2cosh(sqrt(y)/(2 theta)), the band means by tanh-sinh
# quadrature at 45 digits (the same digits at 36 on another panel split),
# the value by the same quadrature of the energy per atom at the root:
# theta -> (W, delta, value)
DIMER_MIN_MU2 = {0.1: (1.62801985275026956676936898041, 0.183844785983675410431071499831,
                       -1.68560994819867420905778814675),
                 0.21: (1.63217556389878172735050222457, 0.0152266358371641922726800888854,
                        -1.69272221129679843165819298304)}


def _widest_mapped(eta):
    # (p, N0) of the odd p >= 3 whose mapped strip is widest
    def width(p):
        s = math.sin(math.pi / (2 * p))
        return min(eta ** (1.0 / p) * s, 0.5 * math.atanh(s))

    p = max(range(3, 400, 2), key=width)
    return p, numerics._start_nodes(width(p))


def _by_each_rule(monkeypatch, fn):
    """fn() by default, forced onto unmapped nodes (p = 1), forced onto the
    widest mapped nodes (p >= 3), with the mode mean's node cap raised to
    make room for the unmapped nodes."""
    monkeypatch.setattr(numerics, "_MEAN_MAX_NODES", 1 << 17)
    default = fn()
    monkeypatch.setattr(numerics, "_node_map", lambda eta: (1, numerics._start_nodes(eta)))
    unmapped = fn()
    monkeypatch.setattr(numerics, "_node_map", _widest_mapped)
    mapped = fn()
    monkeypatch.undo()
    return default, unmapped, mapped


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
        from peierls.finite_chain import _band_energy
        from peierls.thermodynamic import _band_mean
        mu, th, W, d = 2.0, 0.25, 1.4, 0.3
        g_wd = _band_energy(W, d, mu, th, _band_mean)
        g_dw = _band_energy(d, W, mu, th, _band_mean)
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
        # nodes stay unmapped while it is at least the widest mapped strip,
        # atanh(1/2)/2, so the mapped nodes take the colder side of the
        # switch
        W = 1.2
        switch = 2.0 * W * math.sinh(0.5 * math.atanh(0.5)) / math.pi
        for theta, delta, rule in ((0.97 * switch, 0.0, 2), (1.03 * switch, 0.0, 1),
                                   (0.97 * switch, 1e-4, 2), (1.03 * switch, 1e-4, 1)):
            s, p = DimerState(W=W, delta=delta), ModelParams(mu=2.0, theta=theta)
            vals = _by_each_rule(monkeypatch, lambda: g_thermo(s, p))
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

    @pytest.mark.parametrize("x", [-0.5, math.nan, math.inf])
    def test_x_must_be_finite_and_non_negative(self, x):
        # as J_finite: refused by J_thermo itself, not by the mode mean's
        # strip width
        with pytest.raises(ValueError, match="x must be finite and >= 0"):
            J_thermo(x)

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
        # the nodes stay unmapped while asinh(pi / (2x)) is at least the
        # widest mapped strip, atanh(1/2)/2: up to x = 5.65
        for x, rule in ((5.5, 1), (5.8, 2), (100.0, 2), (115.0, 2)):
            vals = _by_each_rule(monkeypatch, lambda: J_thermo(x))
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
        # both equations, mu (W* - 1) = 2 <x h'(x^2 sin^2 t) sin^2 t> and
        # mu W* = 2 <x h'(x^2 sin^2 t) cos^2 t>, with the means taken here,
        # at root-solve points and at closed-form points (mu = 12, 50);
        # measured at most 2.2e-15 (mu = 50), bound 1e-13
        from peierls.kernels import _h_prime
        from peierls.thermodynamic import _ABS_TOL, _tanh_eta
        for mu in (1.0, 2.0, 6.0, 12.0, 50.0):
            cp = theta_critical_thermo(mu)
            x = cp.x

            def mean(trig):
                f = lambda sn, cs: x * _h_prime((x * sn) ** 2) * trig(sn, cs) ** 2
                return numerics.mode_mean(f, _tanh_eta(x), _ABS_TOL)
            r1 = mu * (cp.W_star - 1) - 2.0 * mean(lambda sn, cs: sn)
            r2 = mu * cp.W_star - 2.0 * mean(lambda sn, cs: cs)
            assert abs(r1) <= 1e-13
            assert abs(r2) <= 1e-13

    def test_j_call_budget(self, monkeypatch):
        # J is evaluated once per Newton iterate, as a row of one band mean,
        # never by J_thermo: 2 means measured at mu = 11.1, the largest root
        # solve, just below the closed form's seam at 11.1055; none past it
        calls = []
        mean = thermodynamic._band_mean
        monkeypatch.setattr(thermodynamic, "_band_mean",
                            lambda f, eta: calls.append(eta) or mean(f, eta))
        monkeypatch.setattr(thermodynamic, "J_thermo", None)
        theta_critical_thermo(11.1)
        assert len(calls) == 2
        calls.clear()
        theta_critical_thermo(11.2)
        theta_critical_thermo(200.0)
        assert calls == []

    def test_one_band_mean_per_solve(self, monkeypatch):
        # the Euler-Lagrange means are the last iterate's, at its x: no
        # band mean follows the root solve
        means, points = [], []
        mean = thermodynamic._band_mean
        monkeypatch.setattr(thermodynamic, "_band_mean",
                            lambda f, eta: means.append((f.args[0], mean(f, eta))) or means[-1][1])
        critical_point = thermodynamic._critical_point
        monkeypatch.setattr(thermodynamic, "_critical_point",
                            lambda mu, x, m_s, m_c: points.append((x, m_s, m_c))
                            or critical_point(mu, x, m_s, m_c))
        for mu in (1e-8, 2.0, 11.1):
            means.clear()
            points.clear()
            theta_critical_thermo(mu)
            x, rows = means[-1]
            assert points == [(x, *rows[2:])]

    def test_band_mean_budget(self, monkeypatch):
        # Newton from the shared start rule: on 101 log-spaced mu over the
        # root solve's range [1e-8, 11.1], measured 3.85 mode means a solve on
        # average and at most 6, bounds 4.5 and 7; every mode mean counts,
        # the band mean's and J_thermo's
        calls = []
        for name in ("_band_mean", "mode_mean"):
            mean = getattr(thermodynamic, name)
            monkeypatch.setattr(thermodynamic, name, lambda f, *args, mean=mean:
                                calls.append(1) or mean(f, *args))
        counts = []
        for mu in np.logspace(-8, math.log10(11.1), 101):
            calls.clear()
            theta_critical_thermo(float(mu))
            counts.append(len(calls))
        assert np.mean(counts) <= 4.5 and max(counts) <= 7

    def test_fields_are_python_floats(self):
        for mu in (2.0, 50.0):
            cp = theta_critical_thermo(mu)
            assert all(type(getattr(cp, f.name)) is float for f in dataclasses.fields(cp))

    def test_corrected_asymptotic_relation(self):
        # theta_c * e^{pi mu/4} = W* e^{c2 - 1} up to an exponentially small
        # remainder; the W* prefactor (1 + 4/(pi mu)) decays only like 1/mu
        C = asymptotic_constants().C_prefactor
        for mu in (8.0, 10.0, 12.0, 16.0, 18.0, 20.0):
            cp = theta_critical_thermo(mu)
            ratio = cp.theta_c * math.exp(math.pi * mu / 4)
            assert ratio / (cp.W_star * C) == pytest.approx(1.0, abs=1e-4)

    def test_against_mpmath_past_mu_20(self):
        # the closed form's error is the rounding of pi mu/4 in its
        # exponent: measured 2.6e-15, 2.8e-16, 2.2e-16 and 1.2e-15 at
        # mu = 30, 50, 100 and 200, bound 1e-14
        for mu, want in THETA_C_LARGE_MU.items():
            assert theta_critical_thermo(mu).theta_c == pytest.approx(want, rel=1e-14, abs=0)

    def test_against_mpmath_at_mu_16(self):
        # measured 4.5e-16, bound 1e-14
        assert theta_critical_thermo(16.0).theta_c == pytest.approx(THETA_C_MU16,
                                                                    rel=1e-14, abs=0)

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
        # a NaN stiffness made the bracket walk loop forever
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError):
                theta_critical_thermo(bad)
        with pytest.raises(ValueError, match=r"validated for finite mu in \[1e-08, 200\]"):
            theta_critical_thermo(0.99e-8)
        with pytest.raises(ValueError):
            theta_critical_thermo(1e6)
        # the largest mu of THETA_C_LARGE_MU bounds the domain
        with pytest.raises(ValueError, match=r"mu in \[1e-08, 200\], got 200.5"):
            theta_critical_thermo(200.5)

    def test_node_cap_fits_the_largest_stiffness(self, monkeypatch):
        # the cap is the least power of two that serves the domain: the h''
        # moments of bifurcation_data(_MU_MAX) start at N0 = 4096 and converge
        # at the cap, two doublings on, and raise with the cap halved; J_thermo,
        # the mode-mean check of the closed form, starts there at 4096 too
        mu_max = thermodynamic._MU_MAX
        x = theta_critical_thermo(mu_max).x
        _, n0 = numerics._node_map(thermodynamic._tanh_eta(x))
        assert n0 == 4096
        assert J_thermo(x) == pytest.approx(mu_max, rel=1e-15, abs=0)
        assert bifurcation_data(mu_max).coeff > 0
        monkeypatch.setattr(numerics, "_MEAN_MAX_NODES", numerics._MEAN_MAX_NODES // 2)
        with pytest.raises(numerics.ConvergenceError):
            bifurcation_data(mu_max)


class TestWeakCoupling:
    """Past the seam x0 = e^(pi mu/4)/C = 1e4 (mu = 11.1055) theta_c is a
    closed form. Routines that share no code with it check it: the mode mean
    of J, and through BCS's universal ratios the zero-temperature optimum
    (an AGM) and the bifurcation's h'' moments (a mode mean)."""

    def test_closed_form_solves_the_mode_mean(self):
        # |J_thermo(x) - mu| at the closed form's x: measured 1.4e-14 at
        # mu = 100 and 0 at the others, bound 1e-13 (x off by 1e-10
        # relative moves J by 1.3e-10)
        for mu in (11.2, 12.0, 16.0, 20.0, 50.0, 100.0, 200.0):
            assert abs(J_thermo(theta_critical_thermo(mu).x) - mu) <= 1e-13

    def test_decreasing_across_the_seam(self, monkeypatch):
        # on a grid within 1e-6 of the seam, and on the two neighbouring
        # doubles that straddle it, the first by a root solve (two band
        # means measured, one per Newton iterate), the second by the closed
        # form (none)
        C = asymptotic_constants().C_prefactor

        def closed(mu):
            return math.exp(0.25 * math.pi * mu) / C >= thermodynamic._X_WEAK
        seam = 4.0 / math.pi * math.log(thermodynamic._X_WEAK * C)
        while closed(seam):
            seam = math.nextafter(seam, 0.0)
        while not closed(math.nextafter(seam, math.inf)):
            seam = math.nextafter(seam, math.inf)
        mus = sorted({*np.linspace(seam - 1e-6, seam + 1e-6, 201).tolist(),
                      seam, math.nextafter(seam, math.inf)})
        assert 0 < sum(map(closed, mus)) < len(mus)
        theta = [theta_critical_thermo(mu).theta_c for mu in mus]
        assert all(a > b for a, b in zip(theta, theta[1:]))
        calls = []
        mean = thermodynamic._band_mean
        monkeypatch.setattr(thermodynamic, "_band_mean",
                            lambda f, eta: calls.append(eta) or mean(f, eta))
        theta_critical_thermo(seam)
        theta_critical_thermo(math.nextafter(seam, math.inf))
        assert len(calls) == 2

    def test_gap_to_theta_c_ratio(self):
        # delta_opt / theta_c -> pi e^(-gamma)/2, BCS's 2 delta = 3.53 theta_c;
        # measured 1.3e-13 at mu = 20, then 2.2e-16, 3.4e-15 and 1.8e-14 at
        # 30, 50 and 100; bounds 1e-12 and 1e-13
        want = math.pi * math.exp(-np.euler_gamma) / 2
        for mu, bound in ((20.0, 1e-12), (30.0, 1e-13), (50.0, 1e-13), (100.0, 1e-13)):
            got = dimer_optimum_zero(mu).delta_opt / theta_critical_thermo(mu).theta_c
            assert got == pytest.approx(want, rel=bound, abs=0)

    def test_bifurcation_to_theta_c_ratio(self):
        # coeff^2 / theta_c -> 2 pi^2 / (7 zeta(3)), BCS's slope of the gap;
        # measured 3.8e-13 at mu = 20, then 5.6e-16, 2.2e-16, 6.7e-16, 1.6e-15
        # and 3.1e-15 at 30, 50, 100, 160 and 200; bounds 2e-12 and 1e-14
        want = 2.0 * math.pi ** 2 / (7.0 * scipy.special.zeta(3))
        for mu, bound in ((20.0, 2e-12), (30.0, 1e-14), (50.0, 1e-14), (100.0, 1e-14),
                          (160.0, 1e-14), (200.0, 1e-14)):
            got = bifurcation_data(mu).coeff ** 2 / theta_critical_thermo(mu).theta_c
            assert got == pytest.approx(want, rel=bound, abs=0)


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

    @pytest.mark.parametrize("theta, W_tol, delta_tol, value_tol", [
        # the simplex's errors, measured: W 4.5e-9, delta 5.0e-9, value 4.4e-16
        (0.1, 2e-8, 2e-8, 2e-15),
        # 4.4e-4 below theta_c = 0.21044, where the energy is quartically flat
        # in delta, measured: W 8.1e-9, delta 2.5e-7, value 4.4e-16
        (0.21, 4e-8, 1e-6, 2e-15)])
    def test_against_euler_lagrange_roots(self, theta, W_tol, delta_tol, value_tol):
        # each bound about 4x the measured error (value: a few ulps)
        state, value = minimize_dimer_thermo(ModelParams(mu=2.0, theta=theta))
        W, delta, ref_value = DIMER_MIN_MU2[theta]
        assert abs(state.W - W) <= W_tol
        assert abs(state.delta - delta) <= delta_tol
        assert abs(value - ref_value) <= value_tol

    def test_finite_ring_length_refused(self):
        # L belongs to the finite ring, whose minimum at L = 8 is (1.59673,
        # 0.31825), not the infinite ring's (1.62802, 0.18384)
        p = ModelParams(mu=2.0, theta=0.1, L=8)
        with pytest.raises(ValueError, match="minimize_dimer_finite"):
            minimize_dimer_thermo(p)
        with pytest.raises(ValueError, match="g_finite"):
            g_thermo(DimerState(W=1.6, delta=0.2), p)

    def test_hot_at_inverse_stiffness(self):
        state, _ = minimize_dimer_thermo(ModelParams(mu=1.0, theta=1.5))
        assert state.delta == 0.0

    def test_dimerized_at_large_stiffness(self):
        # below theta_c the state is dimerized, also where the dimerization
        # gain (5.2e-14 at zero temperature) is below the band mean's 1e-12
        # relative accuracy: delta/delta_opt tends to the weak-coupling BCS
        # gap ratio at theta/theta_c = 0.9, solved here by scipy
        # (Muehlschlegel's table: 0.5263); measured 0.52156, 0.91 % below it
        theta = 0.9 * theta_critical_thermo(18.0).theta_c
        state, _ = minimize_dimer_thermo(ModelParams(mu=18.0, theta=theta))
        assert state.delta > 0
        d0 = math.pi * math.exp(-np.euler_gamma)  # the gap at zero temperature, theta_c = 1

        def gap_equation(d):  # ln(d0/d) = 2 int f(E)/E dxi, E = sqrt(xi^2 + d^2), T = 0.9
            fermi = lambda xi: 1.0 / (math.hypot(xi, d) * (math.exp(math.hypot(xi, d) / 0.9) + 1))
            return math.log(d0 / d) - 2.0 * scipy.integrate.quad(fermi, 0, 50, epsabs=1e-13)[0]

        bcs = scipy.optimize.brentq(gap_equation, 1e-3, d0, xtol=1e-14) / d0
        assert bcs == pytest.approx(0.5263, abs=5e-5)
        ratio = state.delta / dimer_optimum_zero(18.0).delta_opt
        assert ratio == pytest.approx(bcs, rel=0.02)

    def test_unresolved_delta_raises(self, tmp_path):
        # at mu = 20, theta = 0.5 theta_c, delta ~ 8e-8 is below what the
        # simplex resolves: an error, and an error row in a sweep, where a
        # value race returned delta = 0
        theta = 0.5 * theta_critical_thermo(20.0).theta_c
        with pytest.raises(numerics.ConvergenceError, match="below theta_c"):
            minimize_dimer_thermo(ModelParams(mu=20.0, theta=theta))
        (row,) = run_sweep(SweepSpec(kind="bifurcation", grid=[(20.0, theta)],
                                     output_path=str(tmp_path / "b.csv")))
        assert row.status.startswith("error: delta = ")

    def test_domain(self):
        # theta_critical_thermo's, which sets the phase
        with pytest.raises(ValueError, match=r"mu in \[1e-08, 200\], got 200.5"):
            minimize_dimer_thermo(ModelParams(mu=200.5, theta=0.1))
        with pytest.raises(ValueError, match=r"mu in \[1e-08, 200\], got 1e-09"):
            minimize_dimer_thermo(ModelParams(mu=1e-9, theta=0.1))
        assert minimize_dimer_thermo(ModelParams(mu=200.0, theta=0.1))[0].delta == 0.0

    @pytest.mark.parametrize("r", [1.0, 1.005, 1.01])
    def test_top_of_domain_near_theta_c(self, r):
        # the 1-periodic root's estimate, ln W*, already solves it here; a
        # walk's first ln 2 probe would double x = W/theta (~2.7e68) past
        # the mode mean's node cap
        theta = r * theta_critical_thermo(200.0).theta_c
        state, value = minimize_dimer_thermo(ModelParams(mu=200.0, theta=theta))
        assert state.delta == 0.0
        assert state.W == pytest.approx(1 + 4 / (math.pi * 200), rel=1e-12)
        assert value == pytest.approx(-4 / math.pi - 8 / (math.pi ** 2 * 200), rel=1e-12)


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
        # h''(u^2) = sech^2(u)/2u^2 - tanh(u)/2u^3 in closed form, -1/3 at u = 0
        def hpp(u):
            return (1 / math.cosh(u) ** 2 - math.tanh(u) / u) / (2 * u * u) if u else -1 / 3

        cp = theta_critical_thermo(2.0)
        r = cp.W_star / cp.theta_c
        b = bifurcation_data(2.0)
        for got, power in ((b.A, 0), (b.B, 1), (b.C_int, 2)):
            def f(s):
                return (hpp(r * math.cos(s))
                        * math.sin(s) ** (2 * power) * math.cos(s) ** (4 - 2 * power))
            want = 4 / math.pi * scipy.integrate.quad(f, 0, math.pi / 2,
                                                      epsabs=1e-13, limit=300)[0]
            assert got == pytest.approx(want, abs=1e-9)

    def test_moment_tolerance_never_exceeds_abs_tol(self, monkeypatch):
        # the h'' moments scale like x^-3 only at large x; below x = 1
        # (mu < ~0.2) they tend to constants, and _ABS_TOL / x^3 grew to
        # 1.7e-5 at mu = 1e-8
        tols = []
        mode_mean = thermodynamic.mode_mean
        monkeypatch.setattr(thermodynamic, "mode_mean",
                            lambda f, eta, abs_tol: tols.append(abs_tol) or
                            mode_mean(f, eta, abs_tol))
        for mu in np.geomspace(1e-8, 200.0, 25):
            tols.clear()
            bifurcation_data(float(mu))
            assert tols and max(tols) <= thermodynamic._ABS_TOL

    def test_coeff_against_mpmath(self):
        # at mu = 12 the moments are ~1e-13: they must converge relative to
        # their size, and delta_prime's bracket must not be summed as B - A + ...
        for mu, want in BIFURCATION_COEFF.items():
            assert bifurcation_data(mu).coeff == pytest.approx(want, rel=1e-8)

    def test_one_moment_mean(self, monkeypatch):
        # A, B and C_int come from one stacked mode mean, with h'' once
        want = bifurcation_data(2.0)
        cp = theta_critical_thermo(2.0)
        monkeypatch.setattr(thermodynamic, "theta_critical_thermo", lambda mu: cp)
        calls = []
        mode_mean = thermodynamic.mode_mean
        monkeypatch.setattr(thermodynamic, "mode_mean",
                            lambda *args: calls.append(args) or mode_mean(*args))
        assert bifurcation_data(2.0) == want
        assert len(calls) == 1

    def test_fields_are_python_floats(self):
        for mu in (2.0, 12.0):
            b = bifurcation_data(mu)
            assert all(type(getattr(b, f.name)) is float for f in dataclasses.fields(b))

    def test_domain(self):
        # theta_critical_thermo's domain: the h'' moments converge at every
        # point of its top, and its check rejects mu outside it. linspace ends
        # at 200 exactly, where arange's last point is 200 + 9e-12
        for mu in np.linspace(160.0, 200.0, 801):
            assert bifurcation_data(float(mu)).coeff > 0
        with pytest.raises(ValueError, match=r"mu in \[1e-08, 200\], got 200.5"):
            bifurcation_data(200.5)
        with pytest.raises(ValueError, match=r"validated for finite mu in \[1e-08, 200\]"):
            bifurcation_data(0.99e-8)

    def test_strong_coupling_expansions(self):
        # as x = W*/theta_c -> 0, h''(y) = -1/3 + 4y/15 - (17/105) y^2 + ..., so
        # A = -1/4 + x^2/6, B = -1/12 + x^2/30 and C_int = -1/4 + x^2/30 up to
        # O(x^4) (x = 3.9e-3 at mu = 1e-8, 1.8e-2 at 1e-6); the remainders
        # measured -0.0885, -0.0126 and -0.0076 times x^4 at both mu (the
        # -(17/105) y^2 term's -17/192, -17/1344 and -17/2240); bounds 0.35,
        # 0.05 and 0.03 times x^4
        for mu in (1e-8, 1e-6):
            cp, b = theta_critical_thermo(mu), bifurcation_data(mu)
            x2 = (cp.W_star / cp.theta_c) ** 2
            assert abs(b.A - (-1 / 4 + x2 / 6)) <= 0.35 * x2 * x2
            assert abs(b.B - (-1 / 12 + x2 / 30)) <= 0.05 * x2 * x2
            assert abs(b.C_int - (-1 / 4 + x2 / 30)) <= 0.03 * x2 * x2

    def test_b_identity_at_the_ends_of_the_domain(self):
        # B = -mu theta_c^3 / (2 W*^3), relative: measured 8.0e-11 at mu = 1e-8,
        # where x carries its 2.3e-11 error, and 2.2e-16 at 200; bounds 3e-10
        # and 1e-15
        for mu, bound in ((1e-8, 3e-10), (200.0, 1e-15)):
            cp = theta_critical_thermo(mu)
            want = -mu * cp.theta_c ** 3 / (2.0 * cp.W_star ** 3)
            assert bifurcation_data(mu).B == pytest.approx(want, rel=bound, abs=0)

    def test_reference_values_mu2(self):
        b = bifurcation_data(2.0)
        assert b.A == pytest.approx(-0.00133568, abs=2e-7)
        assert b.B == pytest.approx(-0.00214321, abs=2e-7)
        assert b.C_int == pytest.approx(-0.06575004, abs=2e-7)
        assert b.det_J == pytest.approx(0.373093, abs=2e-5)
        assert b.delta_prime == pytest.approx(-0.527792, abs=2e-5)
        assert b.coeff == pytest.approx(0.72649273, abs=2e-6)


class TestPhaseDiagram:
    """The phase-diagram sweep: theta_c(mu) rows of run_sweep."""

    @staticmethod
    def _rows(mus):
        return run_sweep(SweepSpec(kind="phase-diagram", grid=[(mu,) for mu in mus],
                                   output_path="unused.csv"))

    def test_single_point(self):
        (row,) = self._rows([2.0])
        assert row.inputs["mu"] == 2.0 and row.status == "ok"
        assert row.outputs["theta_c"] == pytest.approx(THETA_C_MU2, abs=1e-8)

    def test_strictly_decreasing(self):
        thetas = [r.outputs["theta_c"] for r in self._rows([1.0, 2.0, 4.0])]
        assert thetas[0] > thetas[1] > thetas[2]

    def test_bad_point_recorded_not_fatal(self):
        rows = self._rows([2.0, 250.0])
        assert rows[0].outputs["theta_c"] > 0
        assert rows[1].status.startswith("error:") and rows[1].outputs["theta_c"] == ""


class TestIntegrandsOnSinCos:
    """The band integrands take (sin t, cos t) and give the bits of their
    former forms in t, on freshly mapped nodes, unmapped and mapped."""

    @staticmethod
    def _nodes():
        for n, p in ((64, 1), (64, 3), (512, 9)):
            u = np.concatenate((numerics._mode_nodes(n), numerics._mode_nodes(n, True)))
            yield numerics._map_nodes(u, p)[0]

    @staticmethod
    def _captured(monkeypatch, name, call):
        # the integrand handed to thermodynamic.<name> by call()
        fs, mean = [], getattr(thermodynamic, name)
        monkeypatch.setattr(thermodynamic, name,
                            lambda f, *args, **kw: fs.append(f) or mean(f, *args, **kw))
        call()
        assert len(fs) == 1
        return fs[0]

    def test_dimer_band(self):
        from peierls.finite_chain import _dimer_band
        from peierls.kernels import h_theta
        W, delta, theta = 1.3, 0.2, 0.05
        band = _dimer_band(W, delta, theta)
        w2, d2 = 4.0 * W * W, 4.0 * delta * delta
        for t in self._nodes():
            old = h_theta(w2 * np.sin(t) ** 2 + d2 * np.cos(t) ** 2, theta)
            assert np.array_equal(band(np.sin(t), np.cos(t)), old)

    def test_critical_point_moments(self):
        # the rows of a theta_c Newton iterate: J_thermo's integrand and the
        # two Euler-Lagrange means' integrands to the bit, and the
        # slope's sech^2(x |sin t|) cos 2t within 8 ulps of its 1/cosh^2 form
        # (measured 5; theta_critical_thermo hands _band_mean these rows, see
        # TestThetaCritical.test_one_band_mean_per_solve)
        from peierls.kernels import _h_prime
        x = theta_critical_thermo(2.0).x
        for t in self._nodes():
            sn, cs = np.sin(t), np.cos(t)
            rows = thermodynamic._critical_rows(x, sn, cs)
            xhp = x * _h_prime((x * sn) ** 2)
            assert np.array_equal(rows[0], x * _h_prime((x * sn) ** 2) * ((cs - sn) * (cs + sn)))
            assert np.array_equal(rows[2:], np.stack((xhp * sn ** 2, xhp * cs ** 2)))
            slope = (cs - sn) * (cs + sn) / np.cosh(x * sn) ** 2
            assert np.all(np.abs(rows[1] - slope) <= 8 * np.spacing(np.abs(slope)))

    def test_bifurcation_moments(self, monkeypatch):
        from peierls.kernels import _h_second
        cp = theta_critical_thermo(2.0)
        ratio = cp.W_star / cp.theta_c
        monkeypatch.setattr(thermodynamic, "theta_critical_thermo", lambda mu: cp)
        moments = self._captured(monkeypatch, "mode_mean", lambda: bifurcation_data(2.0))
        for t in self._nodes():
            sn2, cs2 = np.sin(t) ** 2, np.cos(t) ** 2
            hpp = _h_second(ratio * ratio * sn2)
            old = np.stack((hpp * sn2 ** 2, hpp * sn2 * cs2, hpp * cs2 ** 2))
            assert np.array_equal(moments(np.sin(t), np.cos(t)), old)
