"""Tests for the scalar circular-statistics primitives."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from torusgraphs.circular import (
    bessel_i,
    bessel_ratio,
    chi2_sf,
    circular_correlation,
    circular_mean_resultant,
    fisher_combine,
    harmonic_addition,
    ks_two_sample,
    log_bessel_i0,
    plv,
    rayleigh_statistic,
    rayleigh_test,
    von_mises_sample,
    wrap_angle,
)
from torusgraphs.exceptions import DegenerateDataError, DomainError

from conftest import bessel_series_oracle

TWO_PI = 2.0 * np.pi


class TestWrapAngle:
    def test_periodicity(self):
        assert wrap_angle(TWO_PI) == 0.0

    def test_negative(self):
        assert wrap_angle(-np.pi / 2) == pytest.approx(3 * np.pi / 2, abs=1e-12)

    def test_many_turns(self):
        assert wrap_angle(7 * np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_idempotent_and_periodic(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-50, 50, size=1000)
        w = wrap_angle(x)
        assert np.all((w >= 0) & (w < TWO_PI))
        np.testing.assert_allclose(wrap_angle(w), w, atol=0)
        np.testing.assert_allclose(wrap_angle(x + TWO_PI), w, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            wrap_angle(np.nan)
        with pytest.raises(DomainError):
            wrap_angle(np.inf)


class TestBessel:
    def test_series_definition_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0

    def test_power_series_oracle_value(self):
        # oracle: sum (z/2)^{2k} / (k!)^2 summed to machine convergence
        assert bessel_i(0, 2.0) == pytest.approx(2.279585302336067, rel=1e-13)

    def test_against_series_oracle_below_crossover(self):
        for z in np.linspace(0.01, 14.9, 40):
            assert bessel_i(0, z) == pytest.approx(bessel_series_oracle(0, z), rel=1e-12)
            assert bessel_i(1, z) == pytest.approx(bessel_series_oracle(1, z), rel=1e-12)

    def test_regime_crossover_agrees(self):
        # the series still converges comfortably past the switch point
        for z in np.linspace(15.0, 25.0, 21):
            assert bessel_i(0, z) == pytest.approx(bessel_series_oracle(0, z), rel=1e-12)
            assert bessel_i(1, z) == pytest.approx(bessel_series_oracle(1, z), rel=1e-12)

    def test_wide_range_against_scipy(self):
        z = np.concatenate([np.linspace(0.0, 30, 61), np.linspace(40, 700, 34)])
        mine0 = bessel_i(0, z)
        mine1 = bessel_i(1, z)
        ref0 = scipy.special.ive(0, z) * np.exp(z)
        ref1 = scipy.special.ive(1, z) * np.exp(z)
        np.testing.assert_allclose(mine0, ref0, rtol=1e-12)
        np.testing.assert_allclose(mine1, ref1, rtol=1e-12)

    def test_log_i0(self):
        z = np.array([0.0, 0.5, 20.0, 5000.0])
        ref = np.log(scipy.special.ive(0, z)) + z
        np.testing.assert_allclose(log_bessel_i0(z), ref, rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(2, 1.0)
        with pytest.raises(DomainError):
            bessel_i(0, -0.1)
        with pytest.raises(DomainError):
            bessel_ratio(-1.0)


class TestBesselRatio:
    def test_zero(self):
        assert bessel_ratio(0.0) == 0.0

    def test_oracle_value(self):
        oracle = bessel_series_oracle(1, 2.0) / bessel_series_oracle(0, 2.0)
        assert bessel_ratio(2.0) == pytest.approx(oracle, rel=1e-13)
        assert bessel_ratio(2.0) == pytest.approx(0.6977746579640081, rel=1e-12)

    def test_huge_argument(self):
        # asymptotic oracle: 1 - 1/(2z) - O(z^-2)
        r = bessel_ratio(1e6)
        assert 0.999 < r < 1.0
        assert r == pytest.approx(1 - 1 / (2e6) - 1 / (8e12), rel=1e-9)

    def test_strictly_increasing_and_bounded(self):
        z = np.arange(0.0, 50.0 + 1e-9, 0.1)
        r = bessel_ratio(z)
        assert np.all(np.diff(r) > 0)
        assert np.all((r >= 0) & (r < 1))


class TestHarmonicAddition:
    def test_single_term(self):
        assert harmonic_addition([1.0], [0.0]) == (1.0, 0.0)

    def test_cancellation(self):
        amp, _ = harmonic_addition([1.0, 1.0], [0.0, np.pi])
        assert amp == pytest.approx(0.0, abs=1e-15)

    def test_two_term_oracle(self):
        # evaluate both sides of the collapsed-cosine identity on a grid
        amp, phase = harmonic_addition([1.0, 1.0], [0.0, np.pi / 2])
        assert amp == pytest.approx(np.sqrt(2), rel=1e-14)
        assert phase == pytest.approx(np.pi / 4, abs=1e-14)
        x = np.linspace(0, TWO_PI, 100)
        lhs = np.cos(x - 0.0) + np.cos(x - np.pi / 2)
        rhs = amp * np.cos(x - phase)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(1, 8)
            a = rng.normal(size=n)
            d = rng.uniform(0, TWO_PI, size=n)
            amp, phase = harmonic_addition(a, d)
            x = rng.uniform(0, TWO_PI, size=1000)
            lhs = np.sum(a[:, None] * np.cos(x[None, :] - d[:, None]), axis=0)
            np.testing.assert_allclose(lhs, amp * np.cos(x - phase), atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            harmonic_addition([], [])


class TestCircularMeanResultant:
    def test_identical_angles(self):
        r = circular_mean_resultant([np.pi / 3] * 3)
        assert r.mean_direction == pytest.approx(np.pi / 3, abs=1e-12)
        assert r.mean_resultant_length == pytest.approx(1.0, abs=1e-12)
        assert not r.degenerate

    def test_antipodal_cancellation(self):
        r = circular_mean_resultant([0.0, np.pi])
        assert r.degenerate
        assert r.mean_direction == 0.0
        assert r.mean_resultant_length < 1e-12

    def test_population_length(self):
        rng = np.random.default_rng(11)
        draws = von_mises_sample(1.0, 2.0, 50000, rng)
        r = circular_mean_resultant(draws)
        assert abs(r.mean_resultant_length - bessel_series_oracle(1, 2) / bessel_series_oracle(0, 2)) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            circular_mean_resultant([])


class TestRayleigh:
    def test_fully_concentrated(self):
        p = rayleigh_test(np.full(100, 0.7))
        assert p < 1e-30

    def test_perfectly_balanced(self):
        p = rayleigh_test([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert p == 1.0

    def test_calibration(self):
        # Monte-Carlo: fraction of p < 0.05 under uniformity should be ~5%
        rng = np.random.default_rng(23)
        draws = rng.uniform(0, TWO_PI, size=(2000, 1000))
        rejected = sum(rayleigh_test(row) < 0.05 for row in draws)
        assert abs(rejected / 2000 - 0.05) < 0.02

    def test_too_few(self):
        with pytest.raises(DomainError):
            rayleigh_test([0.1])

    def test_statistic_matches_definition(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, TWO_PI, 50)
        rbar = circular_mean_resultant(x).mean_resultant_length
        assert rayleigh_statistic(x) == pytest.approx(50 * rbar**2, rel=1e-12)


class TestPlv:
    def test_constant_difference(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, TWO_PI, 100)
        assert plv(x, wrap_angle(x - 1.3)) == pytest.approx(1.0, abs=1e-12)

    def test_cancellation(self):
        x = np.array([0.0, 0.0])
        y = np.array([0.0, np.pi])
        assert plv(x, y) == pytest.approx(0.0, abs=1e-15)

    def test_von_mises_population_value(self):
        rng = np.random.default_rng(5)
        diffs = von_mises_sample(0.4, 2.0, 50000, rng)
        y = rng.uniform(0, TWO_PI, 50000)
        x = wrap_angle(y + diffs)
        target = bessel_series_oracle(1, 2) / bessel_series_oracle(0, 2)
        assert abs(plv(x, y) - target) < 0.01

    def test_common_rotation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, TWO_PI, 500)
        y = rng.uniform(0, TWO_PI, 500)
        base = plv(x, y)
        for c in [0.1, 2.0, 5.5]:
            assert plv(wrap_angle(x + c), wrap_angle(y + c)) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            plv([0.1], [0.1, 0.2])


class TestCircularCorrelation:
    def test_perfect_rotational(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, TWO_PI, 200)
        assert circular_correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_reflectional(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, TWO_PI, 200)
        y = wrap_angle(-x)
        assert circular_correlation(x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_independent_uniforms(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, TWO_PI, 50000)
        y = rng.uniform(0, TWO_PI, 50000)
        assert abs(circular_correlation(x, y)) < 0.02

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            circular_correlation([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])


class TestFisherCombine:
    def test_all_ones(self):
        assert fisher_combine([1.0, 1.0, 1.0]) == 1.0

    def test_single_p_identity(self):
        for p in [0.9, 0.3, 0.01, 1e-6]:
            assert fisher_combine([p]) == pytest.approx(p, rel=1e-12)

    def test_incomplete_gamma_oracle(self):
        # chi2(4) upper tail at -2(2 ln 0.05) = 11.98293...; e^{-x/2} = 0.0025
        # exactly, so sf = 0.0025 * (1 + 5.991465) = 0.01747866...
        x2 = -2 * (math.log(0.05) + math.log(0.05))
        oracle = math.exp(-x2 / 2) * (1 + x2 / 2)
        assert fisher_combine([0.05, 0.05]) == pytest.approx(oracle, rel=1e-12)
        assert fisher_combine([0.05, 0.05]) == pytest.approx(0.017478661367769956, rel=1e-12)

    def test_unit_pvalues_any_k(self):
        for k in (1, 2, 5, 40):
            assert fisher_combine([1.0] * k) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fisher_combine([0.0, 0.5])
        with pytest.raises(DomainError):
            fisher_combine([1.5])
        with pytest.raises(DomainError):
            fisher_combine([])


class TestChi2Sf:
    def test_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(0, 50)
            df = int(rng.integers(1, 90))
            assert chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), rel=1e-10)

    def test_array_equals_scalar_calls_and_keeps_checks(self):
        x = np.array([0.0, 0.5, 3.0, 40.0])
        p = chi2_sf(x, 4)
        assert p.tobytes() == np.array([chi2_sf(float(v), 4) for v in x]).tobytes()
        with pytest.raises(DomainError):
            chi2_sf(np.array([1.0, -1e-12]), 4)
        with pytest.raises(DomainError):
            chi2_sf(x, 0)


class TestVonMisesSample:
    def test_uniform_when_kappa_zero(self):
        passes = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            draws = von_mises_sample(1.0, 0.0, 10**5, rng)
            assert np.all((draws >= 0) & (draws < TWO_PI))
            if rayleigh_test(draws) > 0.001:
                passes += 1
        assert passes >= 50 * 0.99

    def test_mean_direction(self):
        rng = np.random.default_rng(12)
        draws = von_mises_sample(1.0, 4.0, 10**5, rng)
        assert abs(circular_mean_resultant(draws).mean_direction - 1.0) < 0.01

    def test_resultant_length(self):
        rng = np.random.default_rng(13)
        draws = von_mises_sample(1.0, 4.0, 10**5, rng)
        target = bessel_series_oracle(1, 4) / bessel_series_oracle(0, 4)
        assert abs(circular_mean_resultant(draws).mean_resultant_length - target) < 0.01

    def test_deterministic_given_seed(self):
        a = von_mises_sample(0.3, 2.0, 100, np.random.default_rng(77))
        b = von_mises_sample(0.3, 2.0, 100, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_negative_kappa(self):
        with pytest.raises(DomainError):
            von_mises_sample(0.0, -1.0, 10, np.random.default_rng(0))


class TestKsTwoSample:
    def test_identical(self):
        x = np.linspace(0, 1, 50)
        assert ks_two_sample(x, x) == 1.0

    def test_disjoint_supports(self):
        a = np.linspace(0, 1, 100)
        b = np.linspace(2, 3, 100)
        assert ks_two_sample(a, b) < 1e-12

    def test_calibration(self):
        rng = np.random.default_rng(21)
        rejected = 0
        for _ in range(2000):
            a = rng.uniform(0, 1, 5000)
            b = rng.uniform(0, 1, 5000)
            if ks_two_sample(a, b) < 0.05:
                rejected += 1
        assert abs(rejected / 2000 - 0.05) < 0.02

    def test_empty(self):
        with pytest.raises(DomainError):
            ks_two_sample([], [0.1])
