"""Kernel functions: closed forms, finite differences, scipy cross-checks."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from peierls.kernels import (_h_prime, _h_second, electron_free_energy,
                             elliptic_side, entropy, h_theta)

# h_theta(x, theta) as the band means take it, bit for bit, at fixed
# arguments (x, theta)
H_THETA_STORED = {(0.0, 0.5): 0.6931471805599453, (1e-12, 0.1): 0.13862943611448905,
                  (0.3, 0.7): 1.0749222953538993, (2.5, 0.05): 1.5811388300841915,
                  (9.0, 1.3): 3.2466021061279395, (4.0, 1e-3): 2.0,
                  (100.0, 0.5): 10.000000002061153, (7500.0, 2.0): 86.60254037844386}


class TestEntropy:
    def test_endpoints_are_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_half_filling(self):
        assert entropy(0.5) == pytest.approx(-math.log(2), abs=1e-14)

    def test_quarter_filling(self):
        want = 0.25 * math.log(0.25) + 0.75 * math.log(0.75)
        assert entropy(0.25) == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(-0.5623351446188083, abs=1e-12)

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                entropy(bad)

    def test_nonpositive_and_symmetric(self):
        xs = np.linspace(0, 1, 21)
        vals = [entropy(float(x)) for x in xs]
        assert all(v <= 0 for v in vals)
        assert np.allclose(vals, vals[::-1], atol=1e-14)

    def test_array_is_elementwise(self):
        xs = np.linspace(0, 1, 21)
        got = entropy(xs)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert got.tolist() == [entropy(float(x)) for x in xs]
        with pytest.raises(ValueError):
            entropy(np.array([0.5, 1.1]))


class TestHEval:
    """h' and h'' of h(y) = 2 ln(2 cosh sqrt(y)), the private array kernels."""

    def test_at_zero(self):
        assert _h_prime(np.zeros(1))[0] == 1.0
        assert _h_second(np.zeros(1))[0] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_at_one(self):
        assert _h_prime(np.ones(1))[0] == pytest.approx(math.tanh(1.0), abs=1e-14)

    def test_large_argument_stable(self):
        # h(y) = 2 h_theta(y, 1/2); direct cosh evaluation is still exact at
        # y=100 and oracles the overflow-safe form
        assert 2 * h_theta(100.0, 0.5) == pytest.approx(2 * math.log(2 * math.cosh(10.0)),
                                                        abs=1e-12)
        assert 2 * h_theta(100.0, 0.5) == pytest.approx(20.0, abs=1e-7)

    def test_h_prime_positive_decreasing(self):
        hps = _h_prime(np.logspace(-8, 4, 200))
        assert np.all(hps > 0)
        assert np.all(np.diff(hps) < 0)
        assert np.all(hps <= 1.0)

    def test_h_prime_piecewise_bits(self):
        # the series below the 1e-6 cutoff and tanh(r)/r from it up, bit for
        # bit, at 0, on both sides of the cutoff and up to y = 1e150
        ys = np.concatenate(([0.0, 1e-6], np.logspace(-12, 150, 163)))
        small = ys < 1e-6
        want = np.empty_like(ys)
        y = ys[small]
        want[small] = 1.0 - y / 3.0 + 2.0 * y * y / 15.0
        r = np.sqrt(ys[~small])
        want[~small] = np.tanh(r) / r
        assert np.array_equal(_h_prime(ys), want)

    def test_h_second_matches_finite_differences(self):
        ys = np.logspace(-2, 2, 25)
        step = 1e-4 * ys
        fd = (_h_prime(ys + step) - _h_prime(ys - step)) / (2 * step)
        hpp = _h_second(ys)
        assert np.all(hpp < 0)
        assert np.all(np.abs(hpp - fd) <= 1e-6 * np.abs(hpp))

    def test_series_crossover_continuous(self):
        # straddle each series/direct switch by a negligible argument gap:
        # y = 1e-6 for h', y = 1 for h''
        y = np.array([1 - 1e-10, 1 + 1e-10])
        below, above = _h_prime(1e-6 * y)
        assert below == pytest.approx(above, abs=1e-12)
        below, above = _h_second(y)
        assert below == pytest.approx(above, abs=1e-9)

    def test_derivatives_match_mpmath(self):
        # 40-digit closed forms h'(y) = tanh(r)/r and h''(y) = sech^2(r)/2y -
        # tanh(r)/2y^(3/2), r = sqrt(y), on y = 1e-9 to 1e4 and across both
        # switches. Below y = 1 h'' sums the series of (sinh s - s)/s^3, so
        # it never takes the difference of the two ~1/2y terms: the worst
        # error measured is 2.3e-15 relative, at y ~ 300
        ys = np.concatenate(([0.0], np.logspace(-9, 4, 131),
                             [1e-6 * (1 - 1e-10), 1e-6 * (1 + 1e-10), 2e-6,
                              1 - 1e-10, 1 + 1e-10, 296.8246743463243]))
        with mpmath.workdps(40):
            for y, hp, hpp in zip(ys, _h_prime(ys), _h_second(ys)):
                if y == 0.0:
                    want_p, want_s = 1.0, -1.0 / 3.0
                else:
                    Y = mpmath.mpf(float(y))
                    r = mpmath.sqrt(Y)
                    want_p = float(mpmath.tanh(r) / r)
                    want_s = float(mpmath.sech(r) ** 2 / (2 * Y) - mpmath.tanh(r) / (2 * Y * r))
                assert abs(hp - want_p) <= 1e-14 * abs(want_p)
                assert abs(hpp - want_s) <= 4e-15 * abs(want_s)


class TestHTheta:
    def test_zero_argument(self):
        assert h_theta(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-14)

    def test_sqrt_lower_bound(self):
        assert h_theta(4.0, 0.1) >= 2.0

    def test_scaling_identity(self):
        # h_theta(x) = 2 theta ln(2 cosh(sqrt(x)/2theta)), in 30-digit mpmath
        with mpmath.workdps(30):
            for x, th in ((0.3, 0.7), (2.5, 0.05), (9.0, 1.3)):
                want = 2 * th * mpmath.log(2 * mpmath.cosh(mpmath.sqrt(x) / (2 * th)))
                assert h_theta(x, th) == pytest.approx(float(want), rel=1e-13)

    def test_stored_values(self):
        for (x, th), want in H_THETA_STORED.items():
            assert h_theta(x, th) == want
            assert type(h_theta(x, th)) is float
            assert np.all(h_theta(np.array([x, x]), th) == want)

    def test_array_is_elementwise(self):
        # 64 levels, as at the benchmark's ring and band sizes
        x = np.concatenate(([0.0, 1e-300, 1e-12], np.logspace(-6, 6, 61)))
        for th in (1e-3, 0.3, 4.0):
            got = h_theta(x, th)
            assert got.shape == x.shape
            assert got.tolist() == [h_theta(float(v), th) for v in x]

    def test_zero_temperature_limit(self):
        assert h_theta(1.0, 1e-3) == pytest.approx(1.0, abs=1e-6)

    def test_band_above_sqrt(self):
        rng = np.random.default_rng(2)
        for x, th in zip(rng.uniform(0, 9, 40), rng.uniform(1e-3, 2, 40)):
            gap = h_theta(float(x), float(th)) - math.sqrt(x)
            assert 0.0 <= gap <= 2 * th * math.log(2) + 1e-14

    def test_domain(self):
        for theta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                h_theta(1.0, theta)
            with pytest.raises(ValueError, match="positive and finite"):
                electron_free_energy([0.0], theta)
        # a float x must be finite and >= 0; an array is not checked
        for x in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                h_theta(x, 0.5)
        assert np.isnan(h_theta(np.array([math.nan]), 0.5)).all()


class TestElectronFreeEnergy:
    def test_single_zero_mode(self):
        val, occ = electron_free_energy([0.0], 1.0)
        assert val == pytest.approx(-2 * math.log(2), abs=1e-14)
        assert occ[0] == pytest.approx(0.5, abs=1e-15)

    def test_ring_spectrum_closed_form(self):
        eigs = [-2.0, 0.0, 0.0, 2.0]
        val, _ = electron_free_energy(eigs, 0.5)
        want = -sum(h_theta(e * e, 0.5) for e in eigs)
        assert val == pytest.approx(want, abs=1e-12)

    def test_ground_state_limit(self):
        val, _ = electron_free_energy([-1.0, 1.0], 1e-4)
        assert val == pytest.approx(-2.0, abs=1e-9)

    def test_two_evaluations_agree_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(2, 9)
            eigs = rng.standard_normal(n) * 2
            eigs -= eigs.mean()  # traceless, like ring matrices
            for th in (0.1, 1.0):
                val, occ = electron_free_energy(eigs, th)
                direct = 2 * sum(e * g + th * entropy(float(g)) for e, g in zip(eigs, occ))
                assert abs(direct - val) <= 1e-10

    def test_fermi_dirac_is_the_minimum(self):
        rng = np.random.default_rng(29)
        eigs = rng.standard_normal(6)
        eigs -= eigs.mean()
        th = 0.3

        def objective(occ):
            return 2 * sum(e * g + th * entropy(float(g)) for e, g in zip(eigs, occ))

        _, occ = electron_free_energy(eigs, th)
        base = objective(occ)
        for i in range(len(eigs)):
            for sgn in (+1, -1):
                trial = occ.copy()
                trial[i] = min(1.0, max(0.0, trial[i] + sgn * 1e-3))
                assert objective(trial) >= base - 1e-12


class TestEllipticSide:
    def test_flat_limit(self):
        assert elliptic_side(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_circular_limit(self):
        assert elliptic_side(1.0) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_small_parameter_expansion(self):
        a = 0.01
        series = 1 + (-math.log(a) / 4 - 0.25 + math.log(2)) * a
        assert elliptic_side(a) == pytest.approx(series, abs=2e-4)

    def test_matches_scipy(self):
        for a in (0.01, 0.1, 0.4, 0.75, 0.99):
            assert elliptic_side(a) == pytest.approx(float(scipy.special.ellipe(1 - a)),
                                                     abs=1e-10)

    def test_matches_scipy_to_machine_precision(self):
        # the arithmetic-geometric mean, including a near the E(1) = 1 endpoint
        for a in (1e-300, 1e-16, 1e-8, 1e-4, 0.3, 0.5, 0.9, 1 - 1e-12):
            want = float(scipy.special.ellipe(1 - a))
            assert elliptic_side(a) == pytest.approx(want, rel=2e-15, abs=0)

    def test_domain(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                elliptic_side(bad)
