import numpy as np
import pytest

from phasehop.analytic import outage_hopping, outage_static, CapacityMethod
from phasehop.model import Scenario, Scheme
from phasehop.montecarlo import (
    McConfig,
    McResult,
    quantized_sum_moments,
    quantized_sum_samples,
    run,
)


class TestMcConfig:
    def test_work_guard(self):
        sc = Scenario(4, 0.5)
        with pytest.raises(ValueError):
            McConfig(sc, 10**6, 10**5)

    def test_sample_bounds(self):
        sc = Scenario(4, 0.5)
        with pytest.raises(ValueError):
            McConfig(sc, 0, 10)
        with pytest.raises(ValueError):
            McConfig(sc, 10, 10, seed=-1)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = McConfig(Scenario(10, 0.5), 50, 200, seed=3)
        a = run(cfg).per_slow_capacity
        b = run(cfg).per_slow_capacity
        np.testing.assert_array_equal(a, b)

    def test_worker_count_invariance(self):
        cfg = McConfig(Scenario(10, 0.5), 64, 500, seed=5)
        a = run(cfg, workers=1).per_slow_capacity
        b = run(cfg, workers=8).per_slow_capacity
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        sc = Scenario(10, 0.5)
        a = run(McConfig(sc, 20, 100, seed=1)).per_slow_capacity
        b = run(McConfig(sc, 20, 100, seed=2)).per_slow_capacity
        assert not np.array_equal(a, b)


class TestSchemes:
    def test_perfect_exact_plateaus(self):
        cfg = McConfig(Scenario(12, 0.5, scheme=Scheme.PERFECT), 200, 1, seed=1)
        caps = run(cfg).per_slow_capacity
        allowed = {float(np.log2(1 + k * k)) for k in range(13)}
        assert set(np.round(caps, 12)) <= {round(v, 12) for v in allowed}

    def test_los_only(self):
        for scheme, k in ((Scheme.HOPPING, None), (Scheme.STATIC, None),
                          (Scheme.QUANTIZED, 2)):
            sc = Scenario(5, 0.0, 3.0, scheme, quant_levels=k)
            caps = run(McConfig(sc, 10, 50, seed=2)).per_slow_capacity
            np.testing.assert_allclose(caps, np.log2(10), rtol=1e-12)

    def test_perfect_dominates_hopping(self):
        # same seed gives the same slow draws, so the comparison is per
        # realization and the aligned-phase channel is the maximum
        base = dict(slow_samples=100, fast_samples=500, seed=11)
        hop = run(McConfig(Scenario(8, 0.6), **base)).per_slow_capacity
        perf = run(
            McConfig(Scenario(8, 0.6, scheme=Scheme.PERFECT), **base)
        ).per_slow_capacity
        assert np.all(perf >= hop - 1e-9)
        assert np.all(hop >= 0)

    def test_hopping_matches_analytic(self):
        sc = Scenario(20, 0.5)
        res = run(McConfig(sc, 400, 4000, seed=17))
        for r in (0.5, 2.3, 3.1):
            ana = outage_hopping(sc, r)
            emp = float(res.outage_at(r)[0])
            sigma = np.sqrt(max(ana * (1 - ana), 1e-9) / 400)
            assert abs(emp - ana) <= 3 * sigma + 0.01

    def test_static_matches_analytic(self):
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        res = run(McConfig(sc, 20000, 1, seed=23))
        for r in (1.0, 2.0, 3.0):
            ana = outage_static(sc, r, CapacityMethod.EXACT_HANKEL)
            emp = float(res.outage_at(r)[0])
            sigma = np.sqrt(max(ana * (1 - ana), 1e-9) / 20000)
            assert abs(emp - ana) <= 3 * sigma + 1e-3

    def test_quantized_runs(self):
        sc = Scenario(16, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2)
        caps = run(McConfig(sc, 30, 200, seed=4)).per_slow_capacity
        assert np.all(caps >= 0)


class TestMcResult:
    def test_strict_ecdf(self):
        res = McResult(np.array([1.0, 1.0, 2.0, 3.0]),
                       McConfig(Scenario(2, 0.5), 4, 1))
        assert res.outage_at(1.0)[0] == 0.0
        assert res.outage_at(1.0 + 1e-12)[0] == 0.5
        assert res.outage_at(10.0)[0] == 1.0


class TestQuantizedSumMoments:
    def test_clt_regime(self):
        mean, var = quantized_sum_moments(50, 4, 10**6, seed=8)
        assert abs(mean) < 0.05
        assert var == pytest.approx(25.0, abs=0.5)

    def test_small_n_variance(self):
        _, var = quantized_sum_moments(4, 4, 10**6, seed=8)
        assert var == pytest.approx(2.0, abs=0.1)

    def test_small_n_worse_normal_fit(self):
        def ks_to_normal(n):
            x = np.sort(quantized_sum_samples(n, 4, 2 * 10**5, seed=12))
            from scipy.stats import norm

            f = norm.cdf(x, scale=np.sqrt(n / 2))
            emp_hi = np.arange(1, x.size + 1) / x.size
            emp_lo = np.arange(0, x.size) / x.size
            return max(np.abs(f - emp_hi).max(), np.abs(f - emp_lo).max())

        assert ks_to_normal(4) > ks_to_normal(50)

    def test_single_term_variance(self):
        _, var = quantized_sum_moments(1, 2, 10**6, seed=30)
        assert var == pytest.approx(0.5, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantized_sum_moments(0, 4, 10)
        with pytest.raises(ValueError):
            quantized_sum_moments(4, 1, 10)
