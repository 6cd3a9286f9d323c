"""Kernel functions: closed forms, finite differences, scipy cross-checks."""

import math

import numpy as np
import pytest
import scipy.special

from peierls.kernels import (electron_free_energy, elliptic_side, entropy,
                             h_eval, h_theta)


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


class TestHEval:
    def test_at_zero(self):
        v = h_eval(0.0)
        assert v.h == pytest.approx(2 * math.log(2), abs=1e-14)
        assert v.h_prime == 1.0
        assert v.h_second == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_at_one(self):
        assert h_eval(1.0).h_prime == pytest.approx(math.tanh(1.0), abs=1e-14)

    def test_large_argument_stable(self):
        # direct cosh evaluation is still exact at y=100 and oracles the
        # overflow-safe form
        assert h_eval(100.0).h == pytest.approx(2 * math.log(2 * math.cosh(10.0)), abs=1e-12)
        assert h_eval(100.0).h == pytest.approx(20.0, abs=1e-7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_eval(-1e-9)

    def test_h_prime_positive_decreasing(self):
        ys = np.logspace(-8, 4, 200)
        hps = [h_eval(float(y)).h_prime for y in ys]
        assert all(v > 0 for v in hps)
        assert all(a > b for a, b in zip(hps, hps[1:]))
        assert all(v <= 1.0 for v in hps)

    def test_h_second_matches_finite_differences(self):
        for y in np.logspace(-2, 2, 25):
            y = float(y)
            step = 1e-4 * y
            fd = (h_eval(y + step).h_prime - h_eval(y - step).h_prime) / (2 * step)
            hpp = h_eval(y).h_second
            assert hpp < 0
            assert abs(hpp - fd) <= 1e-6 * abs(hpp)

    def test_series_crossover_continuous(self):
        # straddle the series/direct switch by a negligible argument gap
        below = h_eval(1e-6 * (1 - 1e-10))
        above = h_eval(1e-6 * (1 + 1e-10))
        assert below.h_prime == pytest.approx(above.h_prime, abs=1e-12)
        assert below.h_second == pytest.approx(above.h_second, abs=1e-9)

    def test_vectorized_forms_match_scalar(self):
        from peierls.kernels import _h_prime_arr, _h_second_arr
        y = np.array([0.0, 1e-8, 1e-6 * (1 - 1e-10), 1e-6 * (1 + 1e-10), 0.3, 2.0, 50.0, 1e6])
        want = [h_eval(float(v)) for v in y]
        assert _h_prime_arr(y) == pytest.approx([w.h_prime for w in want], rel=1e-14, abs=0)
        assert _h_second_arr(y) == pytest.approx([w.h_second for w in want], rel=1e-14, abs=0)


class TestHTheta:
    def test_zero_argument(self):
        assert h_theta(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-14)

    def test_sqrt_lower_bound(self):
        assert h_theta(4.0, 0.1) >= 2.0

    def test_scaling_identity(self):
        for x, th in ((0.3, 0.7), (2.5, 0.05), (9.0, 1.3)):
            assert h_theta(x, th) == pytest.approx(th * h_eval(x / (4 * th * th)).h, rel=1e-13)

    def test_zero_temperature_limit(self):
        assert h_theta(1.0, 1e-3) == pytest.approx(1.0, abs=1e-6)

    def test_band_above_sqrt(self):
        rng = np.random.default_rng(2)
        for x, th in zip(rng.uniform(0, 9, 40), rng.uniform(1e-3, 2, 40)):
            gap = h_theta(float(x), float(th)) - math.sqrt(x)
            assert 0.0 <= gap <= 2 * th * math.log(2) + 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            h_theta(1.0, 0.0)
        with pytest.raises(ValueError):
            h_theta(-1.0, 0.5)


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
