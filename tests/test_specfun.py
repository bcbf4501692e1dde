import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from phasehop.analytic import (EmpiricalCdf, eps_capacity, outage, outage_general_fading,
                               outage_static_fixed)
from phasehop.hankel import PhasorSumDistribution
from phasehop.model import Scenario
from phasehop.montecarlo import McConfig, McResult
from phasehop.specfun import (
    DiscreteDistribution,
    binomial,
    cal_e,
    cal_e_inverse,
    marcum_q1,
    poisson_binomial,
    quantile,
    whole_number,
    whole_numbers,
)


class TestCalE:
    def test_values(self):
        assert cal_e(1.0) == pytest.approx(0.596347362323194, abs=1e-10)
        assert cal_e(0.05) == pytest.approx(2.5944, abs=1e-3)

    @pytest.mark.parametrize("x,want", [
        (1.5, 0.44825666929158295), (10.0, 0.091563333939788082),
        (700.0, 0.0014265364183008867), (1e4, 9.999000199940024e-5)])
    def test_references(self, x, want):
        # 40-digit mpmath: mp.exp(x) * mp.e1(x)
        assert cal_e(x) == pytest.approx(want, rel=1e-14, abs=0)

    def test_asymptotic(self):
        assert cal_e(100.0) == pytest.approx(0.01, rel=0.02)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1, x2 = np.sort(rng.uniform(1e-3, 100, 2))
            if x1 < x2:
                assert cal_e(x1) > cal_e(x2)

    def test_domain(self):
        # NaN used to return NaN
        for bad in (0.0, -1.0, np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError):
                cal_e(bad)

    def test_branch_continuity(self):
        # the old series / continued-fraction handover at x = 1, and the
        # exp1 / asymptotic-series handover at x = 690
        for x in (1.0, 690.0):
            assert cal_e(x * (1 - 1e-12)) == pytest.approx(cal_e(x * (1 + 1e-12)),
                                                           rel=1e-9)


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

    @pytest.mark.parametrize("y,want", [
        (20.0, 1.1572542765303536e-9), (33.0, 2.6157758090269026e-15),
        (100.0, 2.0886719363262349e-44), (500.0, 4.0001609899617766e-218)])
    def test_references(self, y, want):
        # 40-digit mpmath root of mp.exp(x) * mp.e1(x) = y; the old brentq,
        # with an absolute tolerance on x, was off by 2e-6 to 0.46 here
        assert cal_e_inverse(y) == pytest.approx(want, rel=1e-14, abs=0)

    def test_past_smallest_double(self):
        # y past E(1e-300) ~ 690 used to raise "out of representable range";
        # from E(5e-324) ~ 744 up the root is below every positive double
        tiny = np.nextafter(0.0, 1.0)
        np.testing.assert_array_equal(cal_e_inverse(np.array([744.0, 1e4, np.inf])),
                                      [tiny, tiny, tiny])

    def test_domain(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                cal_e_inverse(bad)


class TestMarcumQ1:
    def test_b_zero(self):
        for a in (0.0, 1.0, 7.5):
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_rayleigh(self):
        # bit for bit, through the subnormals at b ~ 38.6 and past them
        b = np.linspace(0.0, 45.0, 4501)
        np.testing.assert_array_equal(marcum_q1(0.0, b), np.exp(-0.5 * b * b))
        for x in (0.5, 1.0, 3.0, 38.6):
            assert marcum_q1(0.0, x) == np.exp(-0.5 * x * x)

    def test_series_value(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.73292, abs=1e-4)

    @pytest.mark.parametrize("a,b,want", [
        (6.0, 1.0, 0.9999998921359468), (4.0, 1.0, 0.9994100508556392),
        (1.0, 1.0, 0.7328798037968203), (2.0, 8.5, 8.41279629619301e-11),
        (3.0, 24.3, 1.6197750607304912e-100),
        # below chndtr's flush to 0: the ncx2.sf branch
        (3.0854653137332613, 37.017860864649144, 3.8473273143009043e-252)])
    def test_references(self, a, b, want):
        # 40-digit mpmath: sum_k Poisson(k; a^2/2) * gammainc(k + 1, b^2/2, inf,
        # regularized=True)
        assert marcum_q1(a, b) == pytest.approx(want, rel=1e-13, abs=0)

    def test_large_noncentrality(self):
        # scipy.stats' ncx2.sf raised OverflowError at nc = a^2 ~ 590
        assert marcum_q1(24.3, 1.4e-4) == 1.0
        assert marcum_q1(np.sqrt(2.0) * 17.2, 1.7e-4) == 1.0
        # Q1 <= exp(-(b-a)^2/2) underflows past b - a = 38.7
        assert marcum_q1(20.0, 59.0) == 0.0
        assert marcum_q1(1.0, 1e200) == 0.0

    def test_import_skips_scipy_stats(self):
        # importing scipy.stats takes about 0.7 s; only the Q1 tail under 1e-20
        # and binomial past n = 1024 use it. scipy.integrate is imported only
        # by the four-link density, scipy.optimize only by the static
        # eps-capacity search.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import phasehop, sys; print([m in sys.modules for m in "
                "('scipy.stats', 'scipy.integrate', 'scipy.optimize')])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
        assert out.strip() == "[False, False, False]"

    def test_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a, b = rng.uniform(0.1, 20, 2)
            d = rng.uniform(0.01, 2)
            assert marcum_q1(a, b + d) <= marcum_q1(a, b) + 1e-12
            assert marcum_q1(a + d, b) >= marcum_q1(a, b) - 1e-12

    def test_negative_rejected(self):
        # NaN is rejected like a negative argument, not returned
        for a, b in [(-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), ([1.0, np.nan], 2.0)]:
            with pytest.raises(ValueError):
                marcum_q1(a, b)

    @pytest.mark.parametrize("a, b, first", [
        (1e150, 1e150, (1e150, 1e150)),
        (1e10, [5.0, 1e10, 1e150], (1e10, 1e10)),
        ([[1.0, 1.4e150]], [[2.0], [1.4e150], [2.6e75]], (1.4e150, 1.4e150))])
    def test_nan_raises(self, a, b, first):
        # chndtr and ncx2.sf both return NaN for large a; the NaN was
        # returned, and static LOS outage printed nan with exit 0
        with pytest.raises(ValueError) as err:
            marcum_q1(a, b)
        assert str(err.value) == (f"marcum_q1 cannot be computed at a={first[0]!r}, "
                                  f"b={first[1]!r}: chndtr and ncx2.sf both return NaN there")

    def test_array_matches_scalar(self):
        a = np.array([0.0, 0.0, 1.0, 2.5, 7.5, 3.0854653137332613])
        b = np.array([[0.0], [0.5], [3.0], [37.017860864649144], [1e200], [np.inf]])
        q = marcum_q1(a, b)
        assert q.shape == (6, 6)
        for i, j in np.ndindex(q.shape):
            assert q[i, j] == marcum_q1(float(a[j]), float(b[i, 0]))
        assert np.all(q[0] == 1.0) and np.all(q[-1] == 0.0)


class TestDiscreteDistribution:
    def test_invalid_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("pmf", [[np.nan, 1.0], [0.0, np.nan, 1.0]])
    def test_nan_entry(self, pmf):
        with pytest.raises(ValueError, match="entries must lie in"):
            DiscreteDistribution(pmf)

    def test_cdf_nondecreasing(self):
        d = binomial(30, 0.3)
        assert np.all(np.diff(d.cdf) >= 0)
        assert d.cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cdf_top_is_one(self):
        # the cumulative sum can round to 1 - 7e-16 (n = 20, p = 0.3 does)
        rng = np.random.default_rng(11)
        laws = [binomial(20, p) for p in (0.05, 0.3, 0.5, 0.95)]
        laws += [poisson_binomial(rng.uniform(0.0, 1.0, int(rng.integers(1, 80))))
                 for _ in range(200)]
        for d in laws:
            assert d.cdf[-1] == 1.0
            assert np.all(d.cdf <= 1.0)

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
        for p in (1.5, np.nan, "0.5", None):
            with pytest.raises(ValueError, match="p must be a number in"):
                binomial(5, p)

    @pytest.mark.parametrize("n", [3.5, True, -1, np.nan, "3"])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match="n must be a whole number >= 0"):
            binomial(n, 0.5)

    def test_whole_float_n(self):
        assert binomial(3.0, 0.5).pmf.tolist() == binomial(3, 0.5).pmf.tolist()


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

    def test_nan_entry(self):
        # gave an all-NaN pmf
        with pytest.raises(ValueError, match="must lie in"):
            poisson_binomial([0.5, np.nan])

    @pytest.mark.parametrize("p_vec", [[[0.5, 0.5]], 0.5])
    def test_not_a_vector(self, p_vec):
        with pytest.raises(ValueError, match="1-d vector"):
            poisson_binomial(p_vec)


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


class TestWholeNumbers:
    @pytest.mark.parametrize("values", [
        "3", True, np.True_, None, 2.5, np.nan, np.inf, -1, [3],
    ])
    def test_scalar_rejected(self, values):
        # "3" raised TypeError, and True and np.True_ passed as 1
        with pytest.raises(ValueError, match="k must be a whole number"):
            whole_number(values, 0, "k")

    @pytest.mark.parametrize("values", [
        "3", True, None, [3, "4"], np.array([True, False]), [3, None], [3.5], [np.inf],
        [True, 2], [2, np.True_], [[1, 2], [False, 3]],
    ])
    def test_array_rejected(self, values):
        # a list mixing bools with numbers became an int array: [True, 2] passed as [1, 2]
        with pytest.raises(ValueError, match="k must be a whole number"):
            whole_numbers(values, 0, "k")

    def test_accepted(self):
        assert [whole_number(v, 1, "k") for v in (np.int64(3), 4.0, 2**70)] == [3, 4, 2**70]
        assert type(whole_number(np.float32(4.0), 1, "k")) is int
        out = whole_numbers([[0, 2.0], [np.uint8(3), 4]], 0, "k")
        assert out.dtype == np.int64 and out.tolist() == [[0, 2], [3, 4]]
        assert whole_numbers(3, 0, "k").shape == ()


class TestBadArrayMessages:
    @pytest.mark.parametrize("call, good, bad, message", [
        (lambda x: outage(Scenario(20, 0.5), x), 1.0, np.nan,
         "rate must be a number >= 0, got nan at index 317"),
        (lambda x: quantile(binomial(4, 0.5), x), 0.5, 1.5,
         r"eps must be in \[0, 1\), got 1.5 at index 317"),
        (lambda x: whole_numbers(x, 0, "k"), 2.0, 2.5,
         "k must be a whole number >= 0, got 2.5 at index 317"),
        (cal_e, 1.0, 0.0, "x must be positive, got 0.0 at index 317"),
        (cal_e_inverse, 1.0, -1.0, "y must be positive, got -1.0 at index 317"),
        (lambda x: marcum_q1(1.0, x), 1.0, -1.0,
         "arguments must be numbers >= 0, got b=-1.0 at index 317"),
        (EmpiricalCdf.from_samples([0.0, 1.0, 2.0]), 1.0, np.nan,
         "x must be a number, got nan at index 317"),
        (PhasorSumDistribution(3).cdf, 1.0, 4.0,
         r"s=4.0 at index 317 outside support \[0, 3\]"),
        (lambda x: outage(Scenario(6, 0.5, 2.0, "static"), x), 1.0, -np.inf,
         "rate must be a number >= 0, got -inf at index 317"),
        (lambda x: eps_capacity(Scenario(20, 0.5), x), 0.5, -1.0,
         r"eps must be in \[0, 1\), got -1.0 at index 317"),
        (lambda x: outage_static_fixed(3, x, 0.0, "exact"), 1.0, np.nan,
         "rate must be a number >= 0, got nan at index 317"),
        (lambda x: outage_general_fading(x, EmpiricalCdf.from_samples([1.0])), 1.0, -1.0,
         "rate must be a number >= 0, got -1.0 at index 317"),
        (McResult(np.array([1.0]), np.array([1]), McConfig(Scenario(2, 0.5), 1, 1)).outage_at,
         1.0, -np.inf, "rate must be a number >= 0, got -inf at index 317"),
    ], ids=["rate", "quantile", "whole_numbers", "cal_e", "cal_e_inverse", "marcum_q1",
            "empirical_cdf", "phasor_sum_cdf", "static_los_rate", "eps_capacity",
            "outage_static_fixed", "general_fading", "mc_outage_at"])
    def test_names_the_first_bad_entry(self, call, good, bad, message):
        # the message embedded the whole array: 28 lines for 500 NaN rates
        x = np.full(500, good)
        x[[317, 400]] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(x)
