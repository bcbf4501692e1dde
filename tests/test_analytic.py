import json
import pathlib
import warnings

import numpy as np
import pytest
from scipy import optimize

from phasehop import analytic
from phasehop.analytic import (
    CapacityMethod,
    EmpiricalCdf,
    eps_capacity,
    erg_capacity_los,
    erg_capacity_nlos,
    min_outage,
    outage,
    outage_general_fading,
    outage_hopping,
    outage_perfect,
    outage_static,
    outage_static_fixed,
)
from phasehop.model import Scenario, Scheme
from phasehop.montecarlo import McConfig, run
from phasehop.specfun import binomial, cal_e

EXACT = CapacityMethod.EXACT_HANKEL
APPROX = CapacityMethod.APPROX_EI
# 30-digit mpmath references of the exact capacities (bench/make_refs.py)
REFS = json.loads((pathlib.Path(__file__).resolve().parents[1]
                   / "bench" / "refs.json").read_text())

HOP20 = Scenario(20, 0.5)
STATIC20 = Scenario(20, 0.5, scheme=Scheme.STATIC)
PERFECT20 = Scenario(20, 0.5, scheme=Scheme.PERFECT)


class TestErgCapacityNlos:
    def test_zero_links(self):
        assert erg_capacity_nlos(0, EXACT) == 0.0
        assert erg_capacity_nlos(0, APPROX) == 0.0

    def test_single_link_exact(self):
        assert erg_capacity_nlos(1, EXACT) == pytest.approx(1.0, abs=1e-13)

    def test_two_links_exact(self):
        # 2 log2 of the golden ratio
        assert erg_capacity_nlos(2, EXACT) == pytest.approx(
            2 * np.log2((1 + np.sqrt(5)) / 2), abs=1e-13)

    def test_exact_references(self):
        for n in range(1, 51):
            ref = float(REFS["exact_capacity"][str(n)])
            assert erg_capacity_nlos(n, EXACT) == pytest.approx(ref, rel=1e-12)

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

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_fractional_rejected(self, method):
        # 2.5 links used to give C(2) (exact) or E(1/2.5)/ln 2 (approx)
        for n in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="whole number"):
                erg_capacity_nlos(n, method)
        assert erg_capacity_nlos(np.int64(2), method) == erg_capacity_nlos(2, method)

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_nan_raises_without_warning(self, method):
        # a RuntimeWarning from the entry-by-entry check used to come first
        for n in (np.nan, [2, np.nan], np.array([1.0, np.nan])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="whole number"):
                    erg_capacity_nlos(n, method)


class TestErgCapacityLos:
    def test_zero_links(self):
        assert erg_capacity_los(0, 3.0) == pytest.approx(np.log2(10), abs=1e-12)

    def test_nlos_reduction(self):
        # a = 0 is the Ei closed form itself. At a = 1e-8 the K1 sum of the
        # Gaussian characteristic function differs from it by the rule's
        # error alone (measured <= 7.8e-16 for these n): the capacity
        # itself moves by dC/d(a^2) * 1e-16 < 6e-17
        for n in (1, 4, 12):
            assert erg_capacity_los(n, 0.0) == erg_capacity_nlos(n, APPROX)
            assert erg_capacity_los(n, 1e-8) == pytest.approx(
                erg_capacity_nlos(n, APPROX), rel=0, abs=1e-15
            )

    # 30-digit mpmath 1.3.0 references of the approximate capacity, rounded
    # to 17 digits: mp.dps = 30 and mp.quad of
    # log2(1+s) (1/n) e^{-(s+a^2)/n} I0(2 a sqrt(s)/n) over s, split at
    # mp.linspace(0, (a + sqrt(120 n))^2, 40) (a 40-digit run on 80 panels
    # agrees to 25 digits)
    @pytest.mark.parametrize("n, a, ref", [
        (1, 0.5, 1.0013293795734770), (6, 2.0, 2.9614145862431273),
        (20, 3.0, 4.2555594431448124), (100, 5.0, 6.2101716545010087)])
    def test_approx_references(self, n, a, ref):
        assert erg_capacity_los(n, a) == pytest.approx(ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_non_finite_amplitude_rejected(self, method):
        # inf used to give 0.0 and NaN gave NaN; "2" raised TypeError
        for a in (np.nan, np.inf, -1.0, "2", True, None):
            with pytest.raises(ValueError, match="finite number >= 0"):
                erg_capacity_los(3, a, method)

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_amplitude_past_rule_budget(self, monkeypatch, method):
        # 1e308 raised an OverflowError; the rule for a = 1e6 would hold
        # about 4.6e8 nodes, so past a = 215 it is never built
        assert erg_capacity_los(2, 215.0, method) > erg_capacity_los(2, 214.0, method)
        monkeypatch.setattr(analytic, "_k1_rule", None)
        for a in (1e308, 215.5):
            with pytest.raises(ValueError) as info:
                erg_capacity_los(2, a, method)
            assert str(info.value) == f"a must be at most 215 for the capacity rule, got {a!r}"

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_fractional_rejected(self, method):
        for a in (0.0, 2.0):
            with pytest.raises(ValueError, match="whole number"):
                erg_capacity_los(2.5, a, method)
            assert erg_capacity_los(np.int64(3), a, method) == erg_capacity_los(3, a, method)

    def test_monotone_in_n_and_a(self):
        caps = [erg_capacity_los(n, 2.0) for n in range(0, 10)]
        assert np.all(np.diff(caps) > 0)
        caps = [erg_capacity_los(5, a) for a in (0.0, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(caps) > 0)

    def test_mc_cross_check(self):
        # the simulator's fast loop averages log2(1+|H|^2) over hopping
        # phases with every link on. The approximate capacity is a CLT-type
        # approximation, so its tolerance is its model error; the exact
        # C(10, 2) must sit within 4 standard errors of the sample mean
        n, a = 10, 2.0
        caps = run(McConfig(Scenario(n, 1.0, a), 1000, 5000, 42)).per_slow_capacity
        mean, sigma = caps.mean(), caps.std(ddof=1) / np.sqrt(caps.size)
        assert erg_capacity_los(n, a) == pytest.approx(mean, abs=0.02)
        assert abs(erg_capacity_los(n, a, EXACT) - mean) <= 4 * sigma


    def test_exact_los_value(self):
        los = REFS["exact_capacity_los"]
        assert erg_capacity_los(los["n"], los["a"], EXACT) == pytest.approx(
            float(los["value"]), rel=1e-12)
        assert erg_capacity_los(0, 3.0, EXACT) == np.log2(10.0)
        # the exact table feeds hopping outage and eps-capacity with LOS
        sc = Scenario(20, 0.5, 2.0)
        c6 = erg_capacity_los(6, 2.0, EXACT)
        assert outage_hopping(sc, c6, EXACT) == binomial(20, 0.5).cdf[5]
        assert eps_capacity(sc, binomial(20, 0.5).cdf[5], EXACT) == c6

    def test_exact_los_mc(self):
        # 4e5 fast draws at n = 6, a = 2: the exact value (2.9712) is inside
        # 4 sigma of the sample mean, the Gaussian approximation (2.9614)
        # is not
        rng = np.random.default_rng(8)
        caps = []
        for _ in range(4):
            theta = rng.uniform(0, 2 * np.pi, (10**5, 7))
            h = 2.0 * np.exp(1j * theta[:, 0]) + np.exp(1j * theta[:, 1:]).sum(axis=1)
            caps.append(np.log2(1 + np.abs(h) ** 2))
        caps = np.concatenate(caps)
        sigma = caps.std() / np.sqrt(caps.size)
        assert abs(erg_capacity_los(6, 2.0, EXACT) - caps.mean()) <= 4 * sigma
        assert abs(erg_capacity_los(6, 2.0, APPROX) - caps.mean()) > 4 * sigma


class TestOutageHopping:
    def test_floor_value(self):
        assert outage_hopping(HOP20, 0.5) == pytest.approx(2.0 ** -20, rel=1e-9)

    def test_above_top_plateau(self):
        assert outage_hopping(HOP20, 4.0) == 1.0
        for p in (0.05, 0.3, 0.95, tuple(np.linspace(0.1, 0.9, 20))):
            assert outage_hopping(Scenario(20, p), np.inf) == 1.0

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


def _static_eps_reference(sc, eps, method):
    """Static eps-capacity as one brentq per eps on the public outage_static,
    with 0 below the bracket [1e-12, log2(1 + (a + N)^2)] and its top above."""
    x = sc.los_amplitude + sc.n_elements
    r_max = float(np.log2(1.0 + x * x))
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    top, bottom = outage_static(sc, np.array([r_max, 1e-12]), method)
    out = np.where(top <= e, r_max, 0.0)
    inside = (top > e) & (bottom <= e)
    out[inside] = [optimize.brentq(lambda r: outage_static(sc, r, method) - t,
                                   1e-12, r_max, xtol=1e-10) for t in e[inside]]
    return out


class TestEpsCapacity:
    @pytest.mark.parametrize("sc, method", [
        (Scenario(20, 0.5, scheme=Scheme.STATIC), APPROX),
        (Scenario(10, tuple(np.random.default_rng(11).uniform(0.1, 0.9, 10)), 3.0,
                  Scheme.STATIC), APPROX),
        (Scenario(6, 0.5, scheme=Scheme.STATIC), EXACT),
    ])
    def test_static_is_brent_on_outage_static(self, sc, method):
        eps = np.logspace(-9, np.log10(0.5), 20)
        ref = _static_eps_reference(sc, eps, method)
        assert np.count_nonzero(ref) >= 4  # eps above Pr(no link) (1/64 at n = 6)
        np.testing.assert_array_equal(eps_capacity(sc, eps, method), ref)
        assert [eps_capacity(sc, float(e), method) for e in eps] == ref.tolist()

    @pytest.mark.parametrize("scheme, table", [
        (Scheme.STATIC, analytic._static_mixture), (Scheme.HOPPING, analytic._step_table)])
    def test_tables_cached_per_scenario_and_method(self, scheme, table):
        one, other = Scenario(12, 0.4, scheme=scheme), Scenario(12, 0.4, scheme=scheme)
        assert one is not other
        assert table(one, APPROX) is table(other, APPROX)
        assert table(one, APPROX) is not table(one, EXACT)

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

    def test_perfect_duality(self):
        # just above each link-count cdf step, as well as at random eps
        rng = np.random.default_rng(5)
        for n, p in ((20, 0.5), (64, 0.3), (7, 0.9)):
            sc = Scenario(n, p, scheme=Scheme.PERFECT)
            cdf = sc.link_count_distribution().cdf
            eps = np.concatenate([np.nextafter(cdf[:-1], 1.0),
                                  10 ** rng.uniform(-8, -0.1, 20)])
            eps = eps[eps < 1.0]
            r = eps_capacity(sc, eps)
            assert np.all(outage_perfect(sc, r) <= eps)
            assert np.all(outage_perfect(sc, r + 1e-9) > eps)

    def test_static_small(self):
        val = eps_capacity(STATIC20, 1e-5, EXACT)
        assert 0 < val < 0.005
        assert val == pytest.approx(1.2083e-4, rel=1e-4)

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


class TestMethodArgument:
    # a method given as a string ran the approximate path whatever it said
    @pytest.mark.parametrize("call, distinct", [
        (lambda m: erg_capacity_nlos(3, m), True),
        (lambda m: erg_capacity_los(3, 1.5, m), True),
        (lambda m: outage(STATIC20, 1.0, m), True),
        (lambda m: outage_hopping(HOP20, 1.0, m), True),
        (lambda m: outage_static(STATIC20, 1.0, m), True),
        (lambda m: outage_static_fixed(3, 1.0, 0.0, m), True),
        (lambda m: eps_capacity(STATIC20, 1e-3, m), True),
        (lambda m: outage(PERFECT20, 1.0, m), False),  # plateaus without a method
    ])
    def test_value_or_member(self, call, distinct):
        values = {m: call(m.value) for m in CapacityMethod}
        assert values == {m: call(m) for m in CapacityMethod}
        assert (values[EXACT] != values[APPROX]) == distinct
        with pytest.raises(ValueError, match="'bogus' is not a valid CapacityMethod"):
            call("bogus")


class TestOutageStaticFixed:
    def test_single_link_step(self):
        assert outage_static_fixed(1, 0.5, 0.0, EXACT) == pytest.approx(0.0, abs=1e-4)
        assert outage_static_fixed(1, 1.5, 0.0, EXACT) == 1.0

    def test_approx_nlos_value(self):
        assert outage_static_fixed(20, 1.0, 0.0, APPROX) == pytest.approx(
            1 - np.exp(-1 / 20), rel=1e-12
        )

    def test_approx_nlos_low_outage(self):
        # 1 - exp(-x) keeps only ~4 digits of x = 1e-12; -expm1(-x) keeps all
        rate = np.log1p(20e-12) / np.log(2.0)
        x = (np.power(2.0, rate) - 1.0) / 20
        assert outage_static_fixed(20, rate, 0.0, APPROX) == pytest.approx(
            x * (1.0 - 0.5 * x), rel=1e-14, abs=0.0)

    def test_los_zero_rate(self):
        assert outage_static_fixed(7, 0.0, 2.0, APPROX) == 0.0

    @pytest.mark.parametrize("method, a", [(EXACT, 0.0), (APPROX, 0.0), (APPROX, 2.0)])
    def test_fractional_rejected(self, method, a):
        # exact mode used to return NaN for 2.5 links, with a RuntimeWarning
        for n in (2.5, np.nan):
            with pytest.raises(ValueError, match="whole number"):
                outage_static_fixed(n, 1.0, a, method)
        assert outage_static_fixed(np.int64(3), 1.0, a, method) == outage_static_fixed(
            3, 1.0, a, method)

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_amplitude_rejected(self, method):
        # the amplitude was not checked: -1.0 gave the outage at a = 1 and inf gave 0.0
        for a in (-1.0, np.inf, np.nan, "2", True, None):
            with pytest.raises(ValueError, match="finite number >= 0"):
                outage_static_fixed(5, 1.0, a, method)

    def test_exact_requires_nlos(self):
        with pytest.raises(ValueError):
            outage_static_fixed(5, 1.0, 2.0, EXACT)

    def test_exact_above_support(self):
        # sqrt(2^R - 1) >= n means the phasor sum can never reach the target
        assert outage_static_fixed(2, 3.0, 0.0, EXACT) == 1.0

    def test_exact_array_is_per_rate(self):
        rates = np.linspace(0.0, 7.0, 41)
        for n in (1, 2, 3, 6, 20):
            curve = outage_static_fixed(n, rates, 0.0, EXACT)
            scalar = [outage_static_fixed(n, float(r), 0.0, EXACT) for r in rates]
            np.testing.assert_array_equal(curve, scalar)
        curve = outage_static(STATIC20, rates, EXACT)
        np.testing.assert_array_equal(
            curve, [outage_static(STATIC20, float(r), EXACT) for r in rates])

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

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_certain_outage_is_one(self, method):
        # each of these sums its link-count weights to 1 - O(1e-16)
        hetero = (0.62, 0.29, 0.09, 0.06, 0.78, 0.87, 0.6, 0.71, 0.54, 0.89)
        for p in (0.05, 0.3, hetero):
            sc = Scenario(20 if np.isscalar(p) else 10, p, scheme=Scheme.STATIC)
            assert outage_static(sc, np.inf, method) == 1.0
            assert outage_static(sc, 1e3, method) == 1.0
            np.testing.assert_array_equal(
                outage_static(sc, [np.inf, 1e3], method), [1.0, 1.0])

    def test_los_zero_link_term(self):
        sc = Scenario(2, 0.0, 3.0, Scheme.STATIC)
        assert outage_static(sc, 1.0) == 0.0
        assert outage_static(sc, 3.5) == 1.0

    def test_strong_los_low_rate(self):
        # scipy.stats' ncx2.sf raised OverflowError here (nc = 2a^2 = 592)
        assert outage_static(Scenario(1, 1.0, 17.2, Scheme.STATIC), 1e-8) == 0.0


class TestOutagePerfect:
    def test_below_first_step(self):
        assert outage_perfect(PERFECT20, 0.99) == pytest.approx(2.0 ** -20, rel=1e-9)

    def test_at_one(self):
        # one aligned link carries exactly 1 bit: R = 1 is not an outage for it
        assert outage_perfect(PERFECT20, 1.0) == 2.0 ** -20
        assert outage_perfect(PERFECT20, np.nextafter(1.0, 2.0)) == 21 * 2.0 ** -20

    def test_saturation(self):
        assert outage_perfect(PERFECT20, np.log2(1 + 20 ** 2) + 1e-9) == 1.0

    def test_zero_rate(self):
        assert outage_perfect(PERFECT20, 0.0) == 0.0

    def test_los_plateaus(self):
        # k links aligned with the LOS phasor: |H| = a + k
        sc = Scenario(20, 0.5, 3.0, Scheme.PERFECT)
        plateaus = np.log2(1.0 + (3.0 + np.arange(21)) ** 2)
        cdf = sc.link_count_distribution().cdf
        np.testing.assert_array_equal(outage_perfect(sc, plateaus), np.append(0.0, cdf[:-1]))
        np.testing.assert_array_equal(
            outage_perfect(sc, np.nextafter(plateaus, np.inf)), cdf)
        eps = np.concatenate([np.nextafter(cdf[:-1], 1.0), [0.0, 1e-5, 0.5]])
        r = eps_capacity(sc, eps)
        assert np.all(np.isin(r, plateaus))
        assert np.all(outage_perfect(sc, r) <= eps)
        assert np.all(outage_perfect(sc, np.nextafter(r, np.inf)) > eps)
        assert eps_capacity(Scenario(20, 1.0, 3.0, Scheme.PERFECT), 1e-9) == plateaus[-1]

    def test_los_matches_simulation(self):
        # the simulator draws the same aligned channel; its ECDF at the
        # plateau midpoints is the empirical link-count cdf, within 4 sigma
        sc = Scenario(12, 0.4, 2.5, Scheme.PERFECT)
        slow = 8192
        res = run(McConfig(sc, slow, 1, seed=3))
        plateaus = np.log2(1.0 + (2.5 + np.arange(13)) ** 2)
        mid = 0.5 * (plateaus[:-1] + plateaus[1:])
        ana = outage_perfect(sc, mid)
        sigma = np.sqrt(ana * (1 - ana) / slow)
        assert np.all(np.abs(res.outage_at(mid) - ana) <= 4 * sigma)


class TestOutageDispatch:
    SCHEMES = {outage_hopping: (Scheme.HOPPING, Scheme.QUANTIZED),
               outage_static: (Scheme.STATIC,), outage_perfect: (Scheme.PERFECT,)}

    @pytest.mark.parametrize("f", list(SCHEMES), ids=lambda f: f.__name__)
    def test_rejects_other_scheme(self, f):
        for scheme in set(Scheme) - set(self.SCHEMES[f]):
            k = 2 if scheme is Scheme.QUANTIZED else None
            with pytest.raises(ValueError, match="scheme must be"):
                f(Scenario(20, 0.5, scheme=scheme, quant_levels=k), 2.0)


class TestRateArguments:
    SCENARIOS = [
        HOP20,
        Scenario(20, 0.5, 3.0),
        Scenario(20, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2),
        STATIC20,
        Scenario(20, 0.5, 3.0, Scheme.STATIC),
        PERFECT20,
        Scenario(20, 0.5, 3.0, Scheme.PERFECT),
    ]

    @pytest.mark.parametrize("sc", SCENARIOS, ids=lambda sc: str(sc.to_dict()))
    def test_nan_rejected_huge_is_outage(self, sc):
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
            curve = outage(sc, rates)
            assert curve.shape == (3, 4)
            assert isinstance(outage(sc, 1.0), float)
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

    def test_rate_contract(self):
        # -1 used to give the cdf at 0, NaN a scipy root-finding error
        sigma2 = EmpiricalCdf(np.array([10.0]), np.array([1.0]))
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="rate must be a number >= 0"):
                outage_general_fading(bad, sigma2)
        assert outage_general_fading(0.0, sigma2) == 0.0

    def test_huge_rates_are_outages(self):
        # rates from about 1000 up used to raise "out of representable range"
        sigma2 = EmpiricalCdf(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
        rates = np.array([1000.0, 1100.0, 2000.0, np.inf])
        np.testing.assert_array_equal(outage_general_fading(rates, sigma2), 1.0)
        for r in rates:
            assert outage_general_fading(float(r), sigma2) == 1.0

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

    def test_nan_rejected(self):
        # NaN used to read the top of the table
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        for bad in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="x must be a number"):
                cdf(bad)

    def test_nan_in_table_rejected(self):
        # from_samples sorted a NaN last and read 2/3 at x = 5
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf.from_samples([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
