"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are written to the real stdout so they stay visible under pytest's
capture. Sample counts follow the scaled protocols; every criterion carries
its stated runtime budget.
"""
import sys
import time

import numpy as np
import pytest

from phasehop import analytic
from phasehop.analytic import CapacityMethod, EmpiricalCdf
from phasehop.hankel import PhasorSumDistribution, hankel_transform
from phasehop.model import Scenario, Scheme
from phasehop.montecarlo import McConfig, quantized_sum_moments, run
from phasehop.specfun import binomial, cal_e, cal_e_inverse

EXACT = CapacityMethod.EXACT_HANKEL
APPROX = CapacityMethod.APPROX_EI


def _report(capsys, num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


def _cap_approx(i: int) -> float:
    return analytic.erg_capacity_nlos(i, APPROX)


def _midpoint_rates(n: int, i_lo: int, i_hi: int) -> np.ndarray:
    """Rates halfway between consecutive capacity plateaus, where the step
    mixture is flat and robust to evaluate."""
    caps = [_cap_approx(i) for i in range(i_lo, i_hi + 2)]
    return np.array([(caps[j] + caps[j + 1]) / 2 for j in range(i_hi - i_lo + 1)])


class TestCriterion1:
    def test_approximation_error_reproduction(self, capsys):
        t0 = time.time()
        e6, a6 = analytic.erg_capacity_nlos(6, EXACT), _cap_approx(6)
        e50, a50 = analytic.erg_capacity_nlos(50, EXACT), _cap_approx(50)
        gap6, rel6 = e6 - a6, (e6 - a6) / e6
        gap50, rel50 = e50 - a50, (e50 - a50) / e50
        elapsed = time.time() - t0
        ok = (
            abs(gap6 - 0.035) <= 0.005
            and abs(rel6 - 0.015) <= 0.003
            and abs(gap50 - 0.0064) <= 0.001
            and abs(rel50 - 0.0013) <= 0.0003
            and elapsed < 30
        )
        _report(capsys, 1, ok, f"gap(6)={gap6:.4f} ({100*rel6:.2f}%), "
                       f"gap(50)={gap50:.5f} ({100*rel50:.3f}%), {elapsed:.1f}s")
        assert abs(gap6 - 0.035) <= 0.005
        assert abs(rel6 - 0.015) <= 0.003
        assert abs(gap50 - 0.0064) <= 0.001
        assert abs(rel50 - 0.0013) <= 0.0003
        assert elapsed < 30


class TestCriterion2:
    def test_eps_capacity_triple(self, capsys):
        t0 = time.time()
        static = analytic.eps_capacity(
            Scenario(20, 0.5, scheme=Scheme.STATIC), 1e-5, EXACT
        )
        hopping = analytic.eps_capacity(Scenario(20, 0.5), 1e-5, APPROX)
        perfect = analytic.eps_capacity(
            Scenario(20, 0.5, scheme=Scheme.PERFECT), 1e-5
        )
        elapsed = time.time() - t0
        ok = (
            static < 0.005
            and abs(hopping - 0.8603) <= 0.001
            and perfect == 1.0
            and elapsed < 10
        )
        _report(capsys, 2, ok, f"static={static:.5f}, hopping={hopping:.4f}, "
                       f"perfect={perfect}, {elapsed:.1f}s")
        assert static < 0.005
        assert abs(hopping - 0.8603) <= 0.001
        assert perfect == 1.0
        assert elapsed < 10


class TestCriterion3:
    def test_minimum_outage(self, capsys):
        v1 = analytic.min_outage(Scenario(20, 0.5))
        v2 = analytic.min_outage(Scenario(20, 0.1))
        ok = v1 == 0.5 ** 20 and abs(v2 - 0.9 ** 20) < 1e-15
        _report(capsys, 3, ok, f"p=0.5: {v1:.5e} (exact 2^-20), p=0.1: {v2:.5f}")
        assert v1 == 0.5 ** 20
        assert v2 == pytest.approx(0.9 ** 20, rel=1e-14)
        assert v2 == pytest.approx(0.1216, abs=2e-4)


@pytest.fixture(scope="module")
def hopping_mc():
    cfg = McConfig(Scenario(20, 0.5), 500, 5000, seed=2024)
    t0 = time.time()
    res = run(cfg, workers=4)
    return res, time.time() - t0


class TestCriterion4:
    def test_ecdf_agreement(self, hopping_mc, capsys):
        res, mc_time = hopping_mc
        t0 = time.time()
        sc = Scenario(20, 0.5)
        rates = _midpoint_rates(20, 0, 19)
        ana = np.array([analytic.outage_hopping(sc, float(r)) for r in rates])
        emp = res.outage_at(rates)
        sigma = np.sqrt(ana * (1 - ana) / 500)
        worst = np.max(np.abs(emp - ana) - 3 * sigma)
        elapsed = mc_time + time.time() - t0
        ok = worst <= 0 and elapsed < 60
        _report(capsys, 4, ok, f"ECDF vs mixture at 20 midpoint rates: "
                       f"max(|diff|-3sigma)={worst:.2e}, {elapsed:.1f}s")
        assert np.all(np.abs(emp - ana) <= 3 * sigma)
        assert elapsed < 60

    def test_step_locations(self, hopping_mc, capsys):
        # the MC plateaus sit at the exact ergodic capacities; the 0.02-bit
        # match against the Ei approximation is not attainable where the
        # approximation error itself exceeds 0.02 (all i <= 13)
        res, mc_time = hopping_mc
        t0 = time.time()
        # the plateau of each link count is its within-count average
        caps, n_avail = res.per_slow_capacity, res.n_avail
        diffs = []
        for i in range(1, 21):
            sel = caps[n_avail == i]
            if sel.size < 10:
                continue
            diffs.append((i, abs(float(sel.mean()) - _cap_approx(i))))
        worst_i, worst = max(diffs, key=lambda t: t[1])
        elapsed = mc_time + time.time() - t0
        ok = worst <= 0.02 and elapsed < 60
        _report(capsys, 4, ok, f"step locations vs approx capacities: worst "
                       f"|plateau-C_approx({worst_i})|={worst:.4f} bits "
                       f"(tol 0.02), {elapsed:.1f}s")
        assert elapsed < 60
        assert worst <= 0.02


class TestCriterion5:
    def test_static_exact_vs_mc(self, capsys):
        t0 = time.time()
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        res = run(McConfig(sc, 10**5, 1, seed=77), workers=4)
        rates = np.linspace(0.2, 4.2, 20)
        ana = np.array(
            [analytic.outage_static(sc, float(r), EXACT) for r in rates]
        )
        emp = res.outage_at(rates)
        sigma = np.sqrt(np.maximum(ana * (1 - ana), 1e-12) / 10**5)
        worst = np.max(np.abs(emp - ana) - 3 * sigma)
        elapsed = time.time() - t0
        ok = worst <= 0 and elapsed < 60
        _report(capsys, 5, ok, f"static exact vs 1e5-sample MC at 20 rates: "
                       f"max(|diff|-3sigma)={worst:.2e}, {elapsed:.1f}s")
        assert np.all(np.abs(emp - ana) <= 3 * sigma)
        assert elapsed < 60


class TestCriterion6:
    def test_quantized_asymptotic(self, capsys):
        t0 = time.time()
        sup = {}
        grid = np.linspace(0.0, _cap_approx(64) + 0.5, 200)
        for n in (16, 64):
            sc_q = Scenario(n, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2)
            res = run(McConfig(sc_q, 500, 20000, seed=99), workers=4)
            sc_c = Scenario(n, 0.5)
            ana_grid = np.array(
                [analytic.outage_hopping(sc_c, float(r)) for r in grid]
            )
            sup[n] = float(np.max(np.abs(res.outage_at(grid) - ana_grid)))
            if n == 64:
                rates = _midpoint_rates(64, 22, 41)
                ana = np.array(
                    [analytic.outage_hopping(sc_c, float(r)) for r in rates]
                )
                emp = res.outage_at(rates)
                sigma = np.sqrt(np.maximum(ana * (1 - ana), 1e-12) / 500)
                excess = np.max(np.abs(emp - ana) - 3 * sigma)
        elapsed = time.time() - t0
        ok = excess <= 0 and sup[64] < sup[16] and elapsed < 120
        _report(capsys, 6, ok, f"K=2 vs continuous: N=64 max(|diff|-3sigma)="
                       f"{excess:.2e}, sup-norm N=16 {sup[16]:.4f} -> "
                       f"N=64 {sup[64]:.4f}, {elapsed:.1f}s")
        assert excess <= 0
        assert sup[64] < sup[16]
        assert elapsed < 120


class TestCriterion7:
    def test_quantized_sum_moments(self, capsys):
        t0 = time.time()
        mean, var = quantized_sum_moments(50, 4, 10**6, seed=5)
        elapsed = time.time() - t0
        ok = abs(mean) < 0.05 and abs(var - 25) <= 0.5 and elapsed < 30
        _report(capsys, 7, ok, f"mean={mean:.4f}, var={var:.3f}, {elapsed:.1f}s")
        assert abs(mean) < 0.05
        assert abs(var - 25) <= 0.5
        assert elapsed < 30


class TestCriterion8:
    def test_property_suites(self, capsys):
        checks = []

        # Hankel transform closed-form pairs
        from scipy.special import j0

        checks.append(
            abs(hankel_transform(lambda t: np.exp(-t * t / 2), 0, 1.0)
                - np.exp(-0.5)) < 1e-5
        )
        checks.append(
            abs(hankel_transform(lambda t: np.exp(-t), 0, 2.0) - 5 ** -1.5) < 1e-5
        )
        checks.append(
            abs(hankel_transform(lambda t: j0(t) ** 2, 0, 1.0)
                - 2 / (np.pi * np.sqrt(3))) < 1e-5
        )

        # phasor cdf vs empirical deciles
        rng = np.random.default_rng(606)
        for n in (3, 5, 8):
            x = np.sort(np.abs(
                np.exp(1j * rng.uniform(0, 2 * np.pi, (10**6, n))).sum(axis=1)
            ))
            d = PhasorSumDistribution(n)
            for q in np.arange(0.1, 1.0, 0.1):
                s = float(np.quantile(x, q))
                emp = np.searchsorted(x, s, side="right") / x.size
                ana = d.cdf(s)
                sig = np.sqrt(ana * (1 - ana) / x.size)
                checks.append(abs(emp - ana) <= 3 * sig + 1e-4)

        # lower-bound conjecture over the full sweep
        for n in range(1, 51):
            checks.append(
                _cap_approx(n)
                <= analytic.erg_capacity_nlos(n, EXACT) + 1e-3
            )

        # outage monotone in rate and connection probability
        rates = np.linspace(0.0, 4.5, 40)
        prev = None
        for p in (0.2, 0.5, 0.8):
            curve = np.array(
                [analytic.outage_hopping(Scenario(20, p), float(r)) for r in rates]
            )
            checks.append(bool(np.all(np.diff(curve) >= 0)))
            if prev is not None:
                checks.append(bool(np.all(curve <= prev + 1e-15)))
            prev = curve

        # scheme dominance on the comparison grid; the hopping/static leg
        # holds in the low-outage region (the staircase crosses the smooth
        # static curve near eps ~ 0.5, which the source curves also show)
        hop_sc = Scenario(20, 0.5)
        stat_sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        perf_sc = Scenario(20, 0.5, scheme=Scheme.PERFECT)
        for r in np.linspace(0.0, _cap_approx(20) + 1.0, 50):
            hop = analytic.outage_hopping(hop_sc, float(r))
            checks.append(analytic.outage_perfect(perf_sc, float(r)) <= hop + 1e-12)
            if 0 < hop <= 0.1:
                checks.append(
                    hop <= analytic.outage_static(stat_sc, float(r)) + 1e-9
                )

        # general-fading identity against the intermittent mixture
        d = binomial(20, 0.5)
        sig2 = EmpiricalCdf(np.arange(21) / 2.0, d.cdf)
        for r in np.linspace(0.017, 4.69, 100):
            checks.append(
                abs(analytic.outage_general_fading(float(r), sig2)
                    - analytic.outage_hopping(hop_sc, float(r))) <= 1e-12
            )

        # inverse round-trip
        for x in np.logspace(-3, 3, 13):
            checks.append(abs(cal_e_inverse(cal_e(x)) - x) <= 1e-8 * max(1, x))

        # MC determinism across worker counts
        cfg = McConfig(Scenario(12, 0.5), 64, 400, seed=31)
        a = run(cfg, workers=1).per_slow_capacity
        b = run(cfg, workers=8).per_slow_capacity
        checks.append(bool(np.array_equal(a, b)))

        ok = all(checks)
        _report(capsys, 8, ok, f"{sum(checks)}/{len(checks)} property checks hold")
        assert all(checks)


class TestCriterion9:
    def test_los_zero_outage_capacity(self, capsys):
        vals = {}
        for p in (0.0, 0.5, 1.0):
            sc = Scenario(20, p, 3.0)
            vals[p] = analytic.outage_hopping(sc, 3.32)
        above = analytic.outage_hopping(Scenario(20, 0.0, 3.0), 3.33)
        ok = all(v == 0.0 for v in vals.values()) and above == 1.0
        _report(capsys, 9, ok, f"outage(R=3.32)={list(vals.values())}, "
                       f"outage(R=3.33, p=0)={above}")
        assert all(v == 0.0 for v in vals.values())
        assert above == 1.0
