import numpy as np
import pytest

from phasehop.specfun import (
    DiscreteDistribution,
    binomial,
    cal_e,
    cal_e_inverse,
    marcum_q1,
    poisson_binomial,
    quantile,
)


class TestCalE:
    def test_values(self):
        assert cal_e(1.0) == pytest.approx(0.596347362323194, abs=1e-10)
        assert cal_e(0.05) == pytest.approx(2.5944, abs=1e-3)

    def test_asymptotic(self):
        assert cal_e(100.0) == pytest.approx(0.01, rel=0.02)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1, x2 = np.sort(rng.uniform(1e-3, 100, 2))
            if x1 < x2:
                assert cal_e(x1) > cal_e(x2)

    def test_domain(self):
        with pytest.raises(ValueError):
            cal_e(0.0)

    def test_branch_continuity(self):
        # the series / continued-fraction handover at x = 1
        assert cal_e(1.0 - 1e-12) == pytest.approx(cal_e(1.0 + 1e-12), rel=1e-9)


class TestCalEInverse:
    def test_round_trip(self):
        for x in (1.0, 0.05):
            assert cal_e_inverse(cal_e(x)) == pytest.approx(x, abs=1e-8)

    def test_round_trip_wide(self):
        for x in np.logspace(-3, 3, 25):
            assert cal_e_inverse(cal_e(x)) == pytest.approx(x, rel=1e-8)

    def test_small_target(self):
        x = cal_e_inverse(0.01)
        assert x == pytest.approx(98.0, rel=0.02)
        assert cal_e(x) == pytest.approx(0.01, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            cal_e_inverse(0.0)


class TestMarcumQ1:
    def test_b_zero(self):
        for a in (0.0, 1.0, 7.5):
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_rayleigh(self):
        for b in (0.5, 1.0, 3.0):
            assert marcum_q1(0.0, b) == pytest.approx(np.exp(-b * b / 2), rel=1e-12)

    def test_series_value(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.73292, abs=1e-4)

    def test_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a, b = rng.uniform(0.1, 20, 2)
            d = rng.uniform(0.01, 2)
            assert marcum_q1(a, b + d) <= marcum_q1(a, b) + 1e-12
            assert marcum_q1(a + d, b) >= marcum_q1(a, b) - 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)

    def test_array_matches_scalar(self):
        a = np.array([0.0, 0.0, 1.0, 2.5, 7.5])
        b = np.array([[0.0], [0.5], [3.0], [np.inf]])
        q = marcum_q1(a, b)
        assert q.shape == (4, 5)
        for i, j in np.ndindex(q.shape):
            assert q[i, j] == marcum_q1(float(a[j]), float(b[i, 0]))
        assert np.all(q[0] == 1.0) and np.all(q[-1] == 0.0)


class TestDiscreteDistribution:
    def test_invalid_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    def test_cdf_nondecreasing(self):
        d = binomial(30, 0.3)
        assert np.all(np.diff(d.cdf) >= 0)
        assert d.cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_support_max(self):
        assert binomial(20, 0.5).support_max == 20

    def test_read_only(self):
        source = np.array([0.5, 0.5])
        d = DiscreteDistribution(source)
        for table in (d.pmf, d.cdf):
            with pytest.raises(ValueError):
                table[0] = 0.25
        source[0] = 0.25  # the caller's array is copied, not frozen
        assert d.pmf[0] == 0.5


class TestBinomial:
    def test_corner_mass(self):
        assert binomial(20, 0.5).pmf[0] == 2.0 ** -20

    def test_low_p_floor(self):
        assert binomial(20, 0.1).cdf[0] == pytest.approx(0.9 ** 20, rel=1e-12)
        assert binomial(20, 0.1).cdf[0] == pytest.approx(0.12158, abs=1e-4)

    def test_symmetric(self):
        d = binomial(2, 0.5)
        np.testing.assert_allclose(d.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_large_n_no_underflow(self):
        d = binomial(10**4, 0.3)
        assert np.all(np.isfinite(d.pmf))
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            binomial(5, 1.5)


class TestPoissonBinomial:
    def test_matches_binomial(self):
        d = poisson_binomial([0.5, 0.5])
        np.testing.assert_allclose(d.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_deterministic(self):
        d = poisson_binomial([1.0, 1.0, 1.0])
        np.testing.assert_allclose(d.pmf, [0, 0, 0, 1], atol=1e-15)

    def test_hand_enumeration(self):
        d = poisson_binomial([0.1, 0.9])
        np.testing.assert_allclose(d.pmf, [0.09, 0.82, 0.09], atol=1e-15)

    def test_equal_entries_match_binomial(self):
        d1 = poisson_binomial([0.3] * 12)
        d2 = binomial(12, 0.3)
        np.testing.assert_allclose(d1.pmf, d2.pmf, atol=1e-12)

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            poisson_binomial([0.5, -0.1])


class TestQuantile:
    def test_small_eps_steps_over_corner(self):
        d = binomial(20, 0.5)
        assert quantile(d, 1e-5) == 1

    def test_low_p_floor(self):
        assert quantile(binomial(20, 0.1), 1e-3) == 0

    def test_array(self):
        d = binomial(20, 0.5)
        eps = np.array([0.0, 1e-5, 0.5, 0.9])
        np.testing.assert_array_equal(quantile(d, eps), [quantile(d, e) for e in eps])
        for bad in (np.nan, 1.0, -0.1):
            with pytest.raises(ValueError):
                quantile(d, np.array([0.1, bad]))

    def test_eps_zero(self):
        assert quantile(binomial(20, 0.5), 0.0) == 0
        assert quantile(poisson_binomial([1.0, 1.0]), 0.0) == 2

    def test_boundary_convention(self):
        d = binomial(10, 0.4)
        for k in range(d.support_max):
            if d.pmf[k] > 0:
                assert quantile(d, float(d.cdf[k])) == k + 1
                assert quantile(d, float(d.cdf[k]) - 1e-12) == k
