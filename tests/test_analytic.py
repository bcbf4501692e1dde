import functools
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import optimize, special

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
from phasehop.model import Scenario, Scheme, _characteristic
from phasehop.montecarlo import McConfig, McResult, run
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


def _table_by_rows(n, a, gaussian):
    """C(0..n, a) with every row of _characteristic formed at once, its
    integer powers by pow: the table's definition, with row 0 from the
    rule's quadrature."""
    t, w = analytic._k1_rule(max(1, math.ceil(a)))
    return ((1.0 - _characteristic(t, np.arange(n + 1)[:, None], a, gaussian)) * w).sum(axis=1)


class TestCapacityTable:
    build = staticmethod(analytic._capacity_table.__wrapped__)

    def test_rule_constants_are_leggauss(self):
        # the written-out nodes and weights are leggauss's, bit for bit
        x, w = np.polynomial.legendre.leggauss(analytic._K1_ORDER)
        assert analytic._K1_NODES.tobytes() == x.tobytes()
        assert analytic._K1_WEIGHTS.tobytes() == w.tobytes()

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
    def test_exact_matches_powers(self, a):
        # exp(k log|J0|) moved C(k) by at most 3.7e-16 relative against
        # J0^k. It is 1 ulp off J0 itself at 225 of the 592 nodes for
        # a = 0, yet C(1) keeps its bits
        table, ref = self.build(256, a, EXACT), _table_by_rows(256, a, False)
        np.testing.assert_allclose(table[1:], ref[1:], rtol=1e-15, atol=0)
        assert table[1] == ref[1]

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    def test_blocks_keep_each_row(self, monkeypatch, method):
        # at a = 100 a block holds 11 rows of 46,528 nodes: rows 1 to 40 in
        # four blocks, one row a block, or as the last row of a table,
        # are the same bits
        assert analytic._CHUNK // analytic._k1_rule(100)[0].size == 11
        table = self.build(40, 100.0, method)
        for k in (1, 2, 11, 12, 23, 40):
            assert self.build(k, 100.0, method)[k] == table[k]
        monkeypatch.setattr(analytic, "_CHUNK", 1)
        np.testing.assert_array_equal(self.build(40, 100.0, method), table)

    @pytest.mark.parametrize("a", [0.5, 3.0, 100.0])
    def test_approx_is_gaussian_form(self, a):
        # the Gaussian rows kept their bits: one exp per entry, as before
        n = 60 if a < 100 else 15
        np.testing.assert_array_equal(self.build(n, a, APPROX)[1:],
                                      _table_by_rows(n, a, True)[1:])

    @pytest.mark.parametrize("method", [EXACT, APPROX])
    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0, 100.0])
    def test_zero_links_is_los_channel(self, a, method):
        assert self.build(3, a, method)[0] == np.log2(1.0 + a * a)

    def test_zero_of_j0(self, monkeypatch):
        # J0 at the float nearest its first zero reads 9.6e-17, not 0; a
        # libm that rounds it to 0 must give rows of 0 there for k >= 1,
        # with no warning from log 0 and no 0 * -inf in row 0
        t = np.array([0.5, special.jn_zeros(0, 1)[0], 3.0])
        w = np.array([0.25, 1.0, 0.5])
        monkeypatch.setattr(analytic, "_k1_rule", lambda k: (t, w))
        table = self.build(5, 0.0, EXACT)
        phi = special.j0(t)
        assert 0.0 < phi[1] < 1e-16
        ref = ((1.0 - phi ** np.arange(6)[:, None]) * w).sum(axis=1)
        np.testing.assert_allclose(table, ref, rtol=1e-15, atol=0)

        def rounded(t, links, a=0.0, gaussian=False):
            phi = _characteristic(t, links, a, gaussian)
            return np.where(np.abs(phi) < 1e-16, 0.0, phi)
        monkeypatch.setattr(analytic, "_characteristic", rounded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = self.build(5, 0.0, EXACT)
        phi[1] = 0.0
        ref = ((1.0 - phi ** np.arange(6)[:, None]) * w).sum(axis=1)
        assert table[0] == 0.0 and np.all(np.isfinite(table))
        np.testing.assert_allclose(table, ref, rtol=1e-15, atol=0)

    def test_memory(self, monkeypatch):
        # an n x nodes temporary peaked at 90.5 MiB for C(0..10^4) and at
        # 36.9 MiB for C(0..50, a = 100); in blocks, 12.1 and 13.8 MiB
        for name in ("_capacity_table", "_k1_rule"):  # fresh caches
            monkeypatch.setattr(analytic, name,
                                functools.lru_cache(getattr(analytic, name).__wrapped__))
        for call in (lambda: erg_capacity_nlos(10_000, "exact"),
                     lambda: erg_capacity_los(50, 100.0, "exact")):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20 * 2**20


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


def _recorded_rates(monkeypatch) -> list:
    """The rates at which the static mixture evaluates its outage from now
    on, in order: each evaluation takes 2^R - 1 of its rates once."""
    snr, rates = analytic._snr, []

    def recorded(r):
        rates.extend(r.tolist())
        return snr(r)
    monkeypatch.setattr(analytic, "_snr", recorded)
    return rates


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

    def test_bracket_ends_not_evaluated_again(self, monkeypatch):
        # the outages at r_max and _EPS_LO are evaluated once per scenario,
        # on its first eps call; Brent, which starts at both ends, used to
        # evaluate both again at the start of every search
        analytic._curve.cache_clear()
        rates = _recorded_rates(monkeypatch)
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        r_max = float(np.log2(1.0 + 20.0 ** 2))
        eps_capacity(sc, np.array([1e-6, 1e-3, 0.1]))
        eps_capacity(sc, 0.2)
        assert len(rates) >= 2 + 4  # the ends, then Brent's steps for 4 eps
        assert rates[:2] == [r_max, analytic._EPS_LO]
        assert rates.count(r_max) == rates.count(analytic._EPS_LO) == 1

    @pytest.mark.parametrize("method", [APPROX, EXACT])
    def test_outage_evaluates_only_its_rates(self, monkeypatch, method):
        # a fresh curve's bracket ends wait for the first eps call
        analytic._curve.cache_clear()
        rates = _recorded_rates(monkeypatch)
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        outage_static(sc, np.array([0.5, 1.5]), method)
        outage(sc, 2.0, method)
        assert rates == [0.5, 1.5, 2.0]

    @pytest.mark.parametrize("scheme", [Scheme.STATIC, Scheme.HOPPING])
    def test_curve_cached_per_scenario_and_method(self, scheme):
        one, other = Scenario(12, 0.4, scheme=scheme), Scenario(12, 0.4, scheme=scheme)
        assert one is not other
        assert analytic._curve(one, APPROX) is analytic._curve(other, APPROX)
        assert analytic._curve(one, APPROX) is not analytic._curve(one, EXACT)

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

    def test_member_passed_through(self):
        # a member skips the enum lookup; a value still goes through it
        for m in CapacityMethod:
            assert analytic._method(m) is m and analytic._method(m.value) is m
        for bad in ("bogus", None, 0):
            with pytest.raises(ValueError) as direct:
                CapacityMethod(bad)
            with pytest.raises(ValueError, match=f"^{direct.value}$"):
                analytic._method(bad)


class TestOutageStaticFixed:
    def test_single_link_step(self):
        assert outage_static_fixed(1, 0.5, 0.0, EXACT) == pytest.approx(0.0, abs=1e-4)
        assert outage_static_fixed(1, 1.5, 0.0, EXACT) == 1.0

    def test_one_link_atom_is_not_an_outage(self):
        # one link carries exactly 1 bit, and outage is Pr(C < R): R = 1 is
        # not an outage with one link, as under hopping and perfect phases.
        # The exact static path counted the atom at |h| = 1 there.
        above = np.nextafter(1.0, 2.0)
        assert outage_static_fixed(1, 1.0, 0.0, EXACT) == 0.0
        assert outage_static_fixed(1, above, 0.0, EXACT) == 1.0
        one = {s: Scenario(1, 1.0, scheme=s) for s in (Scheme.STATIC, Scheme.HOPPING)}
        assert outage_static(one[Scheme.STATIC], 1.0, EXACT) == 0.0
        assert outage_hopping(one[Scheme.HOPPING], 1.0, EXACT) == 0.0
        assert outage_perfect(Scenario(1, 1.0, scheme=Scheme.PERFECT), 1.0) == 0.0
        # the mixture at R = 1 is its limit from below; P1 = 20 * 2^-20 more above
        below, at, over = outage_static(STATIC20, [np.nextafter(1.0, 0.0), 1.0, above], EXACT)
        assert at == pytest.approx(below, abs=1e-14)
        assert over - at == pytest.approx(20 * 2.0**-20, rel=1e-9)

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

    def test_los_static_overflow_band(self):
        # 2^R - 1 is finite below R = 1024, but twice it is not from R = 1023
        # up: the LOS Marcum-Q argument overflowed with a RuntimeWarning
        sc = Scenario(10, 0.5, 3.0, Scheme.STATIC)
        rates = np.array([1023.0, 1023.5, np.nextafter(1024.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outage_static(sc, 1023.5) == 1.0
            np.testing.assert_array_equal(outage_static(sc, rates), 1.0)
            for links in (1, 3):
                assert outage_static_fixed(links, 1023.5, 3.0, "approx") == 1.0
                np.testing.assert_array_equal(
                    outage_static_fixed(links, rates, 3.0, APPROX), 1.0)

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


def _mc_result():
    return McResult(np.array([0.1, 0.3, 0.7]), np.array([1, 2, 3]),
                    McConfig(Scenario(3, 0.5), 3, 1))


class TestInputForms:
    # every public call that takes a number or an array of them converts it
    # once: a float for one number, an array of the input's shape otherwise
    SIGMA2 = EmpiricalCdf.from_samples([0.2, 0.5, 1.5, 4.0])
    CALLS = {
        "outage hopping": lambda x: outage(HOP20, x),
        "outage quantized": lambda x: outage(
            Scenario(20, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2), x),
        "outage static": lambda x: outage(STATIC20, x),
        "outage static exact": lambda x: outage(STATIC20, x, EXACT),
        "outage static los": lambda x: outage(Scenario(10, 0.5, 3.0, Scheme.STATIC), x),
        "outage perfect": lambda x: outage(PERFECT20, x),
        "eps_capacity hopping": lambda x: eps_capacity(HOP20, x),
        "eps_capacity static": lambda x: eps_capacity(Scenario(6, 0.5, scheme="static"), x),
        "outage_static_fixed": lambda x: outage_static_fixed(6, x, 0.0, APPROX),
        "outage_static_fixed exact": lambda x: outage_static_fixed(6, x, 0.0, EXACT),
        "outage_static_fixed los": lambda x: outage_static_fixed(6, x, 2.0, APPROX),
        "McResult.outage_at": lambda x: _mc_result().outage_at(x),
        "EmpiricalCdf": SIGMA2,
        "outage_general_fading": lambda x: outage_general_fading(x, TestInputForms.SIGMA2),
    }
    NAMES = {"eps": "eps must be in \\[0, 1\\)", "x": "x must be a number",
             "rate": "rate must be a number >= 0"}

    def _name(self, call):
        return self.NAMES["eps" if call.startswith("eps") else
                          "x" if call == "EmpiricalCdf" else "rate"]

    @pytest.mark.parametrize("call", list(CALLS))
    def test_one_number_gives_a_float(self, call):
        f = self.CALLS[call]
        for value in (0.25, np.float64(0.25), np.float32(0.25), np.array(0.25)):
            out = f(value)
            assert type(out) is float and out == f(float(np.float32(value))), value
        assert type(f(0)) is float and f(0) == f(0.0)

    @pytest.mark.parametrize("call", list(CALLS))
    def test_arrays_keep_their_shape(self, call):
        f = self.CALLS[call]
        values = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875]
        want = [f(v) for v in values]
        for x in (values, tuple(values), np.array(values)):
            out = f(x)
            assert type(out) is np.ndarray and out.shape == (6,)
            np.testing.assert_array_equal(out, want)
        out = f(np.reshape(values, (2, 3)))
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, np.reshape(want, (2, 3)))
        for empty in (np.array([]), [], np.empty((0, 3))):
            out = f(empty)
            assert type(out) is np.ndarray and out.shape == np.shape(empty)

    @pytest.mark.parametrize("call", list(CALLS))
    def test_bad_numbers_named(self, call):
        # one number and a 2-d array (a 1-d one is TestBadArrayMessages'
        # case); eps_capacity used to name one number as entry 0
        f, name = self.CALLS[call], self._name(call)
        for bad, shown in ((np.nan, "nan"), (-1.0, "-1.0"), (-np.inf, "-inf")):
            if call == "EmpiricalCdf" and bad < 0:
                assert f(bad) == 0.0  # any real x has a cdf value
                continue
            with pytest.raises(ValueError, match=f"^{name}, got {shown}$"):
                f(bad)
            with pytest.raises(ValueError, match=f"^{name}, got {shown} at index \\(1, 0\\)$"):
                f(np.array([[0.5, 0.25], [bad, 0.5]]))


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

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_los_carries_small_rates(self, scheme):
        # the limit of outage as R -> 0+: with LOS, no link still leaves
        # log2(1 + a^2) bits; it used to give Pr(no link) = 9.54e-7. The
        # step schemes reach it below their first plateau, static outage
        # (2.7e-11 at 1e-9 bits with LOS) in the limit
        sc = Scenario(20, 0.5, 3.0, scheme, 2 if scheme is Scheme.QUANTIZED else None)
        nlos = Scenario(20, 0.5, 0.0, scheme, sc.quant_levels)
        assert min_outage(sc) == 0.0 and min_outage(nlos) == 0.5 ** 20
        for limit in (sc, nlos):
            assert 0.0 <= outage(limit, 1e-9) - min_outage(limit) < 1e-10
            if scheme is not Scheme.STATIC:
                assert outage(limit, 1e-9) == min_outage(limit)


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
