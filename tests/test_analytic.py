import numpy as np
import pytest

from phasehop.analytic import (
    CapacityMethod,
    EmpiricalCdf,
    eps_capacity,
    erg_capacity_los,
    erg_capacity_nlos,
    min_outage,
    outage_general_fading,
    outage_hopping,
    outage_perfect,
    outage_static,
    outage_static_fixed,
)
from phasehop.model import Scenario, Scheme
from phasehop.specfun import binomial, cal_e

EXACT = CapacityMethod.EXACT_HANKEL
APPROX = CapacityMethod.APPROX_EI

HOP20 = Scenario(20, 0.5)
STATIC20 = Scenario(20, 0.5, scheme=Scheme.STATIC)
PERFECT20 = Scenario(20, 0.5, scheme=Scheme.PERFECT)
OUTAGE = {Scheme.HOPPING: outage_hopping, Scheme.QUANTIZED: outage_hopping,
          Scheme.STATIC: outage_static, Scheme.PERFECT: outage_perfect}


class TestErgCapacityNlos:
    def test_zero_links(self):
        assert erg_capacity_nlos(0, EXACT) == 0.0
        assert erg_capacity_nlos(0, APPROX) == 0.0

    def test_single_link_exact(self):
        assert erg_capacity_nlos(1, EXACT) == pytest.approx(1.0, abs=1e-3)

    def test_single_link_approx(self):
        assert erg_capacity_nlos(1, APPROX) == pytest.approx(0.8603, abs=1e-3)

    def test_approx_formula(self):
        for n in (2, 7, 33):
            assert erg_capacity_nlos(n, APPROX) == pytest.approx(
                cal_e(1.0 / n) / np.log(2), rel=1e-12
            )

    def test_gap_at_6(self):
        e = erg_capacity_nlos(6, EXACT)
        a = erg_capacity_nlos(6, APPROX)
        assert e - a == pytest.approx(0.035, abs=0.005)
        assert (e - a) / e == pytest.approx(0.015, abs=0.003)

    def test_monotone(self):
        caps = [erg_capacity_nlos(n, APPROX) for n in range(0, 30)]
        assert np.all(np.diff(caps) > 0)
        caps = [erg_capacity_nlos(n, EXACT) for n in range(0, 8)]
        assert np.all(np.diff(caps) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erg_capacity_nlos(-1, APPROX)


class TestErgCapacityLos:
    def test_zero_links(self):
        assert erg_capacity_los(0, 3.0) == pytest.approx(np.log2(10), abs=1e-12)

    def test_nlos_reduction(self):
        # a = 0 is the closed form itself; the quadrature at a small a > 0
        # stays within its 1e-10 error budget of it (measured <= 1.1e-11
        # for n <= 100 at a = 1e-6)
        for n in (1, 4, 12):
            assert erg_capacity_los(n, 0.0) == erg_capacity_nlos(n, APPROX)
            assert erg_capacity_los(n, 1e-6) == pytest.approx(
                erg_capacity_nlos(n, APPROX), abs=1e-10
            )

    def test_monotone_in_n_and_a(self):
        caps = [erg_capacity_los(n, 2.0) for n in range(0, 10)]
        assert np.all(np.diff(caps) > 0)
        caps = [erg_capacity_los(5, a) for a in (0.0, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(caps) > 0)

    def test_mc_cross_check(self):
        # fast-phase averaging of log2(1+|H|^2) for fixed amplitudes; the
        # analytic integral is a CLT-type approximation, so the tolerance
        # is dominated by its model error, not by the sampling noise
        rng = np.random.default_rng(42)
        n, a = 10, 2.0
        caps = []
        for _ in range(1000):
            theta = rng.uniform(0, 2 * np.pi, (5000, n))
            phl = rng.uniform(0, 2 * np.pi)
            h = a * np.exp(1j * phl) + np.exp(1j * theta).sum(axis=1)
            caps.append(np.log2(1 + np.abs(h) ** 2).mean())
        assert erg_capacity_los(n, a) == pytest.approx(np.mean(caps), abs=0.02)


    def test_exact_requires_nlos(self):
        with pytest.raises(ValueError, match="a = 0 only"):
            erg_capacity_los(6, 2.0, EXACT)
        with pytest.raises(ValueError, match="a = 0 only"):
            outage_hopping(Scenario(20, 0.5, 2.0), 3.0, EXACT)
        assert erg_capacity_los(1, 0.0, EXACT) == 1.0


class TestOutageHopping:
    def test_floor_value(self):
        assert outage_hopping(HOP20, 0.5) == pytest.approx(2.0 ** -20, rel=1e-9)

    def test_above_top_plateau(self):
        assert outage_hopping(HOP20, 4.0) == 1.0

    def test_all_links_step(self):
        sc = Scenario(20, 1.0)
        c20 = erg_capacity_nlos(20, APPROX)
        assert outage_hopping(sc, c20 - 1e-6) == 0.0
        assert outage_hopping(sc, c20) == 0.0  # strict inequality at the step
        assert outage_hopping(sc, c20 + 1e-6) == 1.0

    def test_los_zero_outage(self):
        for p in (0.0, 0.5, 1.0):
            sc = Scenario(20, p, 3.0)
            assert outage_hopping(sc, 3.32) == 0.0

    def test_heterogeneous(self):
        sc = Scenario(3, (0.2, 0.5, 0.8))
        assert outage_hopping(sc, 0.5) == pytest.approx(0.8 * 0.5 * 0.2, rel=1e-12)

    def test_monotone_in_rate_and_p(self):
        rates = np.linspace(0.0, 4.5, 60)
        prev = None
        for p in (0.3, 0.6, 0.9):
            curve = np.array([outage_hopping(Scenario(20, p), float(r)) for r in rates])
            assert np.all(np.diff(curve) >= 0)
            if prev is not None:
                assert np.all(curve <= prev + 1e-15)
            prev = curve

    def test_rejects_static_scheme(self):
        with pytest.raises(ValueError):
            outage_hopping(STATIC20, 1.0)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            outage_hopping(HOP20, -0.1)

    def test_quantized_matches_continuous(self):
        q = Scenario(20, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2)
        for r in (0.5, 2.0, 3.5):
            assert outage_hopping(q, r) == outage_hopping(HOP20, r)


class TestEpsCapacity:
    def test_hopping_value(self):
        assert eps_capacity(HOP20, 1e-5) == pytest.approx(0.8603, abs=1e-3)

    def test_zero_below_floor(self):
        assert eps_capacity(Scenario(20, 0.1), 1e-3) == 0.0

    def test_deterministic_links(self):
        sc = Scenario(20, 1.0)
        for eps in (1e-9, 1e-3, 0.5):
            assert eps_capacity(sc, eps) == erg_capacity_nlos(20, APPROX)

    def test_perfect(self):
        assert eps_capacity(PERFECT20, 1e-5) == 1.0

    def test_static_small(self):
        val = eps_capacity(STATIC20, 1e-5, EXACT)
        assert 0 < val < 0.005

    def test_duality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p = float(rng.uniform(0.05, 0.99))
            eps = float(10 ** rng.uniform(-8, -0.5))
            sc = Scenario(n, p)
            r = eps_capacity(sc, eps)
            assert outage_hopping(sc, r) <= eps
            assert outage_hopping(sc, r + 1e-6) > eps


class TestOutageStaticFixed:
    def test_single_link_step(self):
        assert outage_static_fixed(1, 0.5, 0.0, EXACT) == pytest.approx(0.0, abs=1e-4)
        assert outage_static_fixed(1, 1.5, 0.0, EXACT) == 1.0

    def test_approx_nlos_value(self):
        assert outage_static_fixed(20, 1.0, 0.0, APPROX) == pytest.approx(
            1 - np.exp(-1 / 20), rel=1e-12
        )

    def test_los_zero_rate(self):
        assert outage_static_fixed(7, 0.0, 2.0, APPROX) == 0.0

    def test_exact_requires_nlos(self):
        with pytest.raises(ValueError):
            outage_static_fixed(5, 1.0, 2.0, EXACT)

    def test_exact_above_support(self):
        # sqrt(2^R - 1) >= n means the phasor sum can never reach the target
        assert outage_static_fixed(2, 3.0, 0.0, EXACT) == 1.0

    def test_exact_close_to_approx_large_n(self):
        for r in (0.5, 1.0, 2.0):
            e = outage_static_fixed(30, r, 0.0, EXACT)
            a = outage_static_fixed(30, r, 0.0, APPROX)
            assert e == pytest.approx(a, abs=0.01)


class TestOutageStatic:
    def test_low_rate_floor(self):
        sc = Scenario(20, 0.1, scheme=Scheme.STATIC)
        assert outage_static(sc, 1e-3) == pytest.approx(0.1216, abs=0.002)

    def test_zero_rate(self):
        assert outage_static(STATIC20, 0.0) == 0.0

    def test_monotone_in_rate(self):
        rates = np.linspace(0.01, 5.0, 40)
        curve = [outage_static(STATIC20, float(r)) for r in rates]
        assert np.all(np.diff(curve) >= -1e-12)

    def test_los_zero_link_term(self):
        sc = Scenario(2, 0.0, 3.0, Scheme.STATIC)
        assert outage_static(sc, 1.0) == 0.0
        assert outage_static(sc, 3.5) == 1.0


class TestOutagePerfect:
    def test_below_first_step(self):
        assert outage_perfect(PERFECT20, 0.99) == pytest.approx(2.0 ** -20, rel=1e-9)

    def test_at_one(self):
        assert outage_perfect(PERFECT20, 1.0) == pytest.approx(21 * 2.0 ** -20, rel=1e-9)

    def test_saturation(self):
        assert outage_perfect(PERFECT20, np.log2(1 + 20 ** 2) + 1e-9) == 1.0

    def test_zero_rate(self):
        assert outage_perfect(PERFECT20, 0.0) == 0.0

    def test_rejects_los(self):
        with pytest.raises(ValueError):
            outage_perfect(Scenario(20, 0.5, 3.0, Scheme.PERFECT), 1.0)


class TestRateArguments:
    SCENARIOS = [
        HOP20,
        Scenario(20, 0.5, 3.0),
        Scenario(20, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2),
        STATIC20,
        Scenario(20, 0.5, 3.0, Scheme.STATIC),
        PERFECT20,
    ]

    @pytest.mark.parametrize("sc", SCENARIOS, ids=lambda sc: str(sc.to_dict()))
    def test_nan_rejected_huge_is_outage(self, sc):
        outage = OUTAGE[sc.scheme]
        for bad in (float("nan"), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="rate"):
                outage(sc, bad)
        with pytest.raises(ValueError, match="eps"):
            eps_capacity(sc, float("nan"))
        for huge in (2000.0, np.inf):
            assert outage(sc, huge) == 1.0
        np.testing.assert_array_equal(outage(sc, np.array([1e3, 2e3, np.inf])), 1.0)

    def test_shapes(self):
        rates = np.linspace(0.0, 5.0, 12).reshape(3, 4)
        for sc in self.SCENARIOS:
            curve = OUTAGE[sc.scheme](sc, rates)
            assert curve.shape == (3, 4)
            assert isinstance(OUTAGE[sc.scheme](sc, 1.0), float)
        eps = np.array([[1e-6, 1e-3], [0.1, 0.5]])
        for sc in (HOP20, STATIC20, PERFECT20):
            assert eps_capacity(sc, eps).shape == (2, 2)
            assert isinstance(eps_capacity(sc, 1e-3), float)


class TestSchemeDominance:
    def test_ordering(self):
        # perfect adjustment dominates everywhere; static only falls behind
        # hopping in the small-outage region (the staircase crosses the
        # smooth static curve near eps ~ 0.5, e.g. at R = 3.0 hopping gives
        # 0.588 vs static 0.506), so that leg is checked for eps <= 0.1
        top = erg_capacity_nlos(20, APPROX)
        for r in np.linspace(0.05, top - 0.01, 25):
            hop = outage_hopping(HOP20, float(r))
            stat = outage_static(STATIC20, float(r))
            perf = outage_perfect(PERFECT20, float(r))
            assert perf <= hop + 1e-12
            if hop <= 0.1:
                assert hop <= stat + 1e-9


class TestGeneralFading:
    def test_intermittent_identity(self):
        d = binomial(20, 0.5)
        sigma2 = EmpiricalCdf(np.arange(21) / 2.0, d.cdf)
        rates = np.linspace(0.013, 4.71, 100)
        for r in rates:
            assert outage_general_fading(float(r), sigma2) == pytest.approx(
                outage_hopping(HOP20, float(r)), abs=1e-12
            )

    def test_degenerate_threshold(self):
        c20 = cal_e(0.05) / np.log(2)
        sigma2 = EmpiricalCdf(np.array([10.0]), np.array([1.0]))
        assert outage_general_fading(c20 - 1e-6, sigma2) == 0.0
        assert outage_general_fading(c20 + 1e-6, sigma2) == 1.0

    def test_rayleigh_product_mc(self):
        # direct two-timescale simulation with Rayleigh-product amplitudes:
        # per slow realization average log2(1+|H|^2) over random phases,
        # then compare Pr(C_erg < R) against the threshold formula fed with
        # the empirical sigma^2 law of the same draws
        rng = np.random.default_rng(9)
        n, slow, fast = 64, 1000, 1000
        h = rng.rayleigh(scale=1 / np.sqrt(2), size=(slow, n))
        g = rng.rayleigh(scale=1 / np.sqrt(2), size=(slow, n))
        amp = h * g
        sigma2 = 0.5 * np.sum(amp**2, axis=1)
        cdf = EmpiricalCdf.from_samples(sigma2)
        caps = np.empty(slow)
        for k in range(slow):
            theta = rng.uniform(0, 2 * np.pi, (fast, n))
            hh = (amp[k] * np.exp(1j * theta)).sum(axis=1)
            caps[k] = np.log2(1 + np.abs(hh) ** 2).mean()
        for r in (4.8, 5.2, 5.6):
            direct = float(np.mean(caps < r))
            sigma = np.sqrt(max(direct * (1 - direct), 1e-12) / slow)
            assert outage_general_fading(r, cdf) == pytest.approx(
                direct, abs=3 * sigma + 0.01
            )


class TestMinOutage:
    def test_values(self):
        assert min_outage(HOP20) == pytest.approx(9.5367431640625e-7, rel=1e-14)
        assert min_outage(Scenario(20, 0.1)) == pytest.approx(0.1216, abs=5e-4)
        assert min_outage(Scenario(13, 1.0)) == 0.0


class TestEmpiricalCdf:
    def test_from_samples(self):
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == pytest.approx(1 / 3)
        assert cdf(2.5) == pytest.approx(2 / 3)
        assert cdf(10.0) == 1.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdf(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
