import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from phasehop.analytic import outage_hopping, outage_static, CapacityMethod
from phasehop import montecarlo
from phasehop.model import Scenario, Scheme, _capacity, symbol_capacity
from phasehop.montecarlo import (
    _BLOCK,
    _HOPPING_LEVELS,
    _chunk_rows,
    _fast_means,
    _group_size,
    _level_indices,
    _levels,
    _link_limits,
    _pairs_for,
    _static_capacities,
    _stream,
    _unit_phasors,
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

    @pytest.mark.parametrize("scheme", ["static", "perfect"])
    def test_work_guard_counts_no_fast_loop(self, scheme):
        # static and perfect run no fast loop: `mc --scheme static --slow 20000000`
        # with the default --fast 1000 was refused as 2e10 samples
        McConfig(Scenario(20, 0.5, scheme=scheme), 2 * 10**7, 1000)
        with pytest.raises(ValueError, match="20000000000 x 1 samples exceed"):
            McConfig(Scenario(20, 0.5, scheme=scheme), 2 * 10**10, 1000)

    @pytest.mark.parametrize("scheme, levels", [("hopping", None), ("quantized", 2)])
    def test_work_guard_counts_fast_loop(self, scheme, levels):
        with pytest.raises(ValueError, match="^20000000 x 1000 samples exceed the 1e10 "
                           "work guard$"):
            McConfig(Scenario(20, 0.5, scheme=scheme, quant_levels=levels), 2 * 10**7, 1000)

    @pytest.mark.parametrize("levels", [257, 1000, 2**64 + 1])
    def test_quantized_level_cap(self, levels):
        # 256 levels are continuous hopping to about 1e-88 bits; more would
        # only grow the fast loop's tables. The scenario itself takes them.
        # quantized_sum_samples shares the check, and its text
        sc = Scenario(4, 0.5, scheme="quantized", quant_levels=levels)
        with pytest.raises(ValueError, match=f"^the simulator takes at most 256 "
                           f"quantization levels, .* got {levels}$") as config_error:
            McConfig(sc, 10, 10)
        with pytest.raises(ValueError, match=f"^{re.escape(str(config_error.value))}$"):
            quantized_sum_samples(3, levels, 10)
        McConfig(Scenario(4, 0.5, scheme="quantized", quant_levels=256), 10, 10)
        assert quantized_sum_samples(3, 256, 10).shape == (10,)

    def test_sample_bounds(self):
        sc = Scenario(4, 0.5)
        with pytest.raises(ValueError):
            McConfig(sc, 0, 10)
        with pytest.raises(ValueError):
            McConfig(sc, 10, 10, seed=-1)


    def test_fractional_sample_counts(self):
        # run raised TypeError on 2.5 slow samples, which cli.main let through
        sc = Scenario(4, 0.5)
        with pytest.raises(ValueError, match="slow_samples must be a whole number"):
            McConfig(sc, 2.5, 10)
        with pytest.raises(ValueError, match="fast_samples must be a whole number"):
            McConfig(sc, 10, 2.5)
        config = McConfig(sc, 10.0, np.int64(3), 2.0)
        assert [type(v) for v in (config.slow_samples, config.fast_samples,
                                  config.seed)] == [int, int, int]

    def test_fractional_seed(self):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            McConfig(Scenario(4, 0.5), 10, 10, seed=1.5)
        with pytest.raises(ValueError, match="64-bit"):
            McConfig(Scenario(4, 0.5), 10, 10, seed=2**64)


    @pytest.mark.parametrize("value", ["10", True, None, [10]])
    @pytest.mark.parametrize("field", ["slow_samples", "fast_samples", "seed"])
    def test_rejects_non_numbers(self, field, value):
        args = {"scenario": Scenario(4, 0.5), "slow_samples": 10, "fast_samples": 10,
                "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            McConfig(**args)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = McConfig(Scenario(10, 0.5), 50, 200, seed=3)
        a = run(cfg).per_slow_capacity
        b = run(cfg).per_slow_capacity
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_worker_count_invariance(self, scheme):
        # three blocks of slow samples, the last one short
        k = 4 if scheme is Scheme.QUANTIZED else None
        sc = Scenario(10, 0.5, 1.5, scheme, quant_levels=k)
        cfg = McConfig(sc, 2 * 256 + 37, 500, seed=5)
        ref = run(cfg, workers=1)
        for workers in (2, 3, 8):
            res = run(cfg, workers=workers)
            np.testing.assert_array_equal(res.per_slow_capacity, ref.per_slow_capacity)
            np.testing.assert_array_equal(res.n_avail, ref.n_avail)

    @pytest.mark.parametrize("seed", [0, 2**40 + 7, 2**64 - 2])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_worker_sweep(self, scheme, seed):
        # 4 schemes x 3 seeds x workers 1, 2 and 4: 36 runs of three blocks,
        # the last one short, whose phasor draws end wherever their
        # rejections fall
        k = 3 if scheme is Scheme.QUANTIZED else None
        sc = Scenario(12, 0.6, 0.8, scheme, quant_levels=k)
        cfg = McConfig(sc, 2 * 256 + 11, 40, seed=seed)
        ref = run(cfg, workers=1)
        for workers in (2, 4):
            res = run(cfg, workers=workers)
            np.testing.assert_array_equal(res.per_slow_capacity, ref.per_slow_capacity)
            np.testing.assert_array_equal(res.n_avail, ref.n_avail)

    @pytest.mark.parametrize("a", [0.0, 0.8])
    def test_block_layout(self, a):
        # each block's stream holds the link states, then one phasor per
        # active link, row-major, then the LOS phases: rebuilt from twin
        # streams, the static capacities come back bit for bit
        sc = Scenario(9, (0.1, 0.3, 0.5, 0.7, 0.9, 0.5, 0.5, 0.2, 1.0), a, Scheme.STATIC)
        slow = 2 * _BLOCK + 30
        res = run(McConfig(sc, slow, 1, seed=2**63 + 5))
        caps, links = [], []
        for b in range(3):
            twin = _stream(2**63 + 5, b)
            n_avail = (twin.random((min(_BLOCK, slow - b * _BLOCK), 9))
                       < sc.prob_vector).sum(axis=1)
            c, s = _unit_phasors(twin, int(n_avail.sum()))
            los = a * np.exp(2j * np.pi * twin.random(n_avail.size))
            caps.append(_static_capacities(c, s, n_avail, los))
            links.append(n_avail)
        np.testing.assert_array_equal(res.per_slow_capacity, np.concatenate(caps))
        np.testing.assert_array_equal(res.n_avail, np.concatenate(links))

    @pytest.mark.parametrize("scheme", [Scheme.HOPPING, Scheme.STATIC])
    def test_top_seeds(self, scheme):
        # a list key became float64 from 2^63 up: 2^63 and 2^63 + 1 drew the
        # same samples, and 2^64 - 1 was keyed [0, 0] with a RuntimeWarning
        sc = Scenario(10, 0.5, scheme=scheme)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b, top = (run(McConfig(sc, 20, 50, seed=s)).per_slow_capacity
                         for s in (2**63, 2**63 + 1, 2**64 - 1))
            sums = [quantized_sum_samples(3, 4, 50, seed=s) for s in (2**63, 2**63 + 1)]
        assert not np.array_equal(a, b)
        assert not np.array_equal(top, run(McConfig(sc, 20, 50, seed=0)).per_slow_capacity)
        assert not np.array_equal(*sums)

    def test_schemes_share_link_draws(self):
        # every scheme draws the link states first from the same stream
        sc = dict(n_elements=10, link_probs=(0.2, 0.4, 0.5, 0.9) * 2 + (0.6, 0.7),
                  los_amplitude=0.5)
        links = [run(McConfig(Scenario(**sc, scheme=scheme, quant_levels=k), 300, 21,
                              seed=9)).n_avail
                 for scheme, k in ((Scheme.STATIC, None), (Scheme.PERFECT, None),
                                   (Scheme.HOPPING, None), (Scheme.QUANTIZED, 3))]
        for other in links[1:]:
            np.testing.assert_array_equal(links[0], other)

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_static_and_fast_loop_share_slow_phases(self, a):
        # one link, always on: with K = 2 a symbol's capacity is the static
        # capacity c_s (theta = 0) or its mirror c_m = log2(4 + 2a^2 - 2^c_s)
        # (theta = pi), so L (q - c_m) / (c_s - c_m) counts the theta = 0
        # symbols of a row, a whole number if both runs read the same phi and u
        fast = 301
        c_s, q = (run(McConfig(Scenario(1, 1.0, a, scheme, quant_levels=k), 600, fast, 9))
                  .per_slow_capacity
                  for scheme, k in ((Scheme.STATIC, None), (Scheme.QUANTIZED, 2)))
        c_m = np.log2(4 + 2 * a * a - 2**c_s)
        apart = np.abs(c_s - c_m) > 0.1
        count = fast * (q - c_m)[apart] / (c_s - c_m)[apart]
        assert apart.sum() > 500
        assert np.max(np.abs(count - np.round(count))) <= 0.01

    @pytest.mark.parametrize("a", [0.0, 1.5])
    @pytest.mark.parametrize("n, p, fast", [
        (10, 0.5, 301), (10, 0.5, 400),
        (3, 1.0, 2 * 87381 + 5),  # rows of three chunks, the first of odd size
    ])
    def test_hopping_is_quantized_on_the_float32_grid(self, a, n, p, fast):
        # continuous hopping draws its phases as 2^8 quantized levels, the
        # levels l of the grid 2 pi l/256 from one byte of a Philox word
        # each, and rotates its link phasors by the same table of grid
        # phasors (the float32 grid of the name is what the fast loop drew
        # before it took phasors from the table)
        hop, quant = (run(McConfig(Scenario(n, p, a, scheme, quant_levels=k), 20, fast, 13))
                      for scheme, k in ((Scheme.HOPPING, None), (Scheme.QUANTIZED, 2**8)))
        np.testing.assert_array_equal(hop.per_slow_capacity, quant.per_slow_capacity)
        np.testing.assert_array_equal(hop.n_avail, quant.n_avail)

    @pytest.mark.parametrize("scheme, k", [(Scheme.STATIC, None), (Scheme.QUANTIZED, 5),
                                           (Scheme.HOPPING, None)])
    def test_no_los_keeps_the_stream_in_step(self, scheme, k):
        # at a = 0 the LOS phasor is not computed, but its phase is still
        # drawn: a 1e-300 amplitude moves no sum and reads the same stream
        runs = [run(McConfig(Scenario(10, 0.5, a, scheme, quant_levels=k), 300, 41, 8))
                for a in (0.0, 1e-300)]
        np.testing.assert_array_equal(runs[0].per_slow_capacity, runs[1].per_slow_capacity)

    @pytest.mark.parametrize("workers", [0, 2.5, "2", True, None])
    def test_workers_checked(self, workers):
        # 2.5 was accepted and "2" raised TypeError; NaN hung with no thread
        # started, and is left out here so that a regression cannot hang
        with pytest.raises(ValueError, match="workers must be a whole number"):
            run(McConfig(Scenario(4, 0.5), 10, 10), workers=workers)

    def test_seed_changes_output(self):
        sc = Scenario(10, 0.5)
        a = run(McConfig(sc, 20, 100, seed=1)).per_slow_capacity
        b = run(McConfig(sc, 20, 100, seed=2)).per_slow_capacity
        assert not np.array_equal(a, b)


# SHA-256 of run and quantized_sum_samples outputs, run here and in a fresh
# interpreter: every scheme on 7 links (odd rows x links, so that a block's
# link states end part-way through a four-word Philox output), with rows
# of 0 and of all 7 links and rejected quantized levels
_DIGEST = """
import hashlib
from phasehop.model import Scenario, Scheme
from phasehop.montecarlo import McConfig, run, quantized_sum_samples

def digest():
    h = hashlib.sha256()
    p = (0.0, 0.3, 0.5, 0.9, 1.0, 0.5, 0.2)
    for scheme, k in ((Scheme.PERFECT, None), (Scheme.STATIC, None),
                      (Scheme.HOPPING, None), (Scheme.QUANTIZED, 3)):
        for seed in (0, 2**64 - 1):
            res = run(McConfig(Scenario(7, p, 1.5, scheme, quant_levels=k), 301, 9, seed),
                      workers=2)
            h.update(res.per_slow_capacity.tobytes())
            h.update(res.n_avail.tobytes())
    h.update(quantized_sum_samples(5, 3, 999, seed=7).tobytes())
    return h.hexdigest()
"""


class TestStreamReuse:
    """Each thread re-keys one Philox generator per block: no run or sum
    may read anything an earlier one left in it."""

    @staticmethod
    def _others():
        # runs that leave the thread's generator part-way through a word
        # group, with other keys: another seed, every other scheme, other
        # worker counts, a quantized cosine sum
        sc = dict(n_elements=7, link_probs=0.45, los_amplitude=0.5)
        yield lambda: run(McConfig(Scenario(**sc, scheme="perfect"), 37, 1, seed=3))
        yield lambda: run(McConfig(Scenario(**sc, scheme="static"), 301, 1, seed=4))
        yield lambda: run(McConfig(Scenario(**sc, scheme="quantized", quant_levels=5),
                                   13, 11, seed=5))
        yield lambda: run(McConfig(Scenario(**sc), 300, 7, seed=6), workers=2)
        yield lambda: quantized_sum_samples(3, 7, 101, seed=8)

    @pytest.mark.parametrize("scheme, k", [(Scheme.PERFECT, None), (Scheme.STATIC, None),
                                           (Scheme.HOPPING, None), (Scheme.QUANTIZED, 3)])
    def test_same_bits_after_other_runs(self, scheme, k):
        cfg = McConfig(Scenario(9, (0.0, 0.2, 0.5, 0.5, 0.7, 0.9, 1.0, 0.4, 0.6), 0.8,
                                scheme, quant_levels=k), 2 * _BLOCK + 3, 23, seed=2**63 + 1)
        ref = run(cfg)
        for other in self._others():
            other()
            for workers in (1, 3):
                res = run(cfg, workers=workers)
                np.testing.assert_array_equal(res.per_slow_capacity, ref.per_slow_capacity)
                np.testing.assert_array_equal(res.n_avail, ref.n_avail)

    def test_quantized_sum_same_bits_after_other_runs(self):
        ref = quantized_sum_samples(4, 5, 3001, seed=12)
        for other in self._others():
            other()
            np.testing.assert_array_equal(quantized_sum_samples(4, 5, 3001, seed=12), ref)

    def test_fresh_process_same_digest(self):
        for other in self._others():  # this thread's generator has been used
            other()
        scope = {}
        exec(_DIGEST, scope)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", _DIGEST + "print(digest())"],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.stdout == scope["digest"]() + "\n"


class TestLinkStates:
    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 1 - 2.0**-53, 1.0])
    def test_perfect_at_the_edges(self, p):
        # p = 2^-53 is up only for a word whose top 53 bits are 0, and
        # 1 - 2^-53 down only for all ones: once in 2^53 draws each
        n = 5
        res = run(McConfig(Scenario(n, p, scheme=Scheme.PERFECT), _BLOCK + 9, 1, seed=31))
        links = n if p > 0.5 else 0
        np.testing.assert_array_equal(res.n_avail, np.full(_BLOCK + 9, links))
        np.testing.assert_array_equal(res.per_slow_capacity,
                                      np.full(_BLOCK + 9, np.log2(1.0 + links**2)))

    def test_perfect_heterogeneous_with_zero_and_one(self):
        # links of p = 0 and 2^-53 are never up, of 1 - 2^-53 and 1 always
        p = (0.0, 1.0, 0.5, 2.0**-53, 1 - 2.0**-53, 0.5, 1.0, 0.0)
        slow = 4 * _BLOCK
        res = run(McConfig(Scenario(8, p, scheme=Scheme.PERFECT), slow, 1, seed=2**64 - 1))
        assert set(res.n_avail.tolist()) == {3, 4, 5}
        # the two p = 0.5 links: their count is binomial(2, 1/2)
        counts = np.bincount(res.n_avail - 3, minlength=3)
        assert np.all(np.abs(counts - slow * np.array([0.25, 0.5, 0.25]))
                      <= 4 * np.sqrt(slow * np.array([0.1875, 0.25, 0.1875])))

    def test_limits_match_the_float_test(self):
        # u = (w >> 11) * 2^-53, as Generator.random makes it from a word w,
        # is below p exactly when w >> 11 is below the limit: checked for
        # top bits at the limit and one to either side of it, for p on the
        # 2^-53 grid, between grid points, and at 0, 1 and their neighbours
        grid = 2.0**-53
        p = np.array([0.0, 5e-324, grid, 1.5 * grid, 2 * grid, 0.1, 1 / 3, 0.5,
                      np.nextafter(0.5, 0), np.nextafter(0.5, 1), 1 - 2 * grid,
                      1 - 1.5 * grid, 1 - grid, 1.0])
        limits = _link_limits(p)
        assert limits.dtype == np.uint64
        top = (limits.astype(np.int64)[:, None] + np.arange(-1, 2)).clip(0, 2**53 - 1)
        words = (top.astype(np.uint64) << np.uint64(11)) | np.uint64(2**11 - 1)
        float_test = (words >> np.uint64(11)) * grid < p[:, None]
        np.testing.assert_array_equal((words >> np.uint64(11)) < limits[:, None], float_test)
        assert float_test.any() and not float_test.all()


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
        hop, static, perf = (run(McConfig(Scenario(8, 0.6, scheme=scheme), **base))
                             for scheme in (Scheme.HOPPING, Scheme.STATIC, Scheme.PERFECT))
        for res in (hop, static):
            np.testing.assert_array_equal(res.n_avail, perf.n_avail)
            assert np.all(perf.per_slow_capacity >= res.per_slow_capacity - 1e-9)
            assert np.all(res.per_slow_capacity >= 0)

    def test_hopping_matches_analytic(self):
        sc = Scenario(20, 0.5)
        res = run(McConfig(sc, 400, 4000, seed=17))
        for r in (0.5, 2.3, 3.1):
            ana = outage_hopping(sc, r)
            emp = res.outage_at(r)
            sigma = np.sqrt(max(ana * (1 - ana), 1e-9) / 400)
            assert abs(emp - ana) <= 3 * sigma + 0.01

    def test_static_matches_analytic(self):
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        res = run(McConfig(sc, 20000, 1, seed=23))
        for r in (1.0, 2.0, 3.0):
            ana = outage_static(sc, r, CapacityMethod.EXACT_HANKEL)
            emp = res.outage_at(r)
            sigma = np.sqrt(max(ana * (1 - ana), 1e-9) / 20000)
            assert abs(emp - ana) <= 3 * sigma + 1e-3

    @pytest.mark.parametrize("scheme, k", [(Scheme.HOPPING, None), (Scheme.QUANTIZED, 2),
                                           (Scheme.QUANTIZED, 5)])
    def test_one_link_nlos_is_one_bit(self, scheme, k):
        # one unit phasor and no LOS: |h| = 1 on every symbol, log2(2) = 1 bit.
        # A fast loop of float32 angles and cos/sin read 5.8e-9 to 4.9e-8 off
        res = run(McConfig(Scenario(1, 1.0, 0.0, scheme, quant_levels=k), 300, 2000, 41))
        assert res.n_avail.tolist() == [1] * 300
        assert np.max(np.abs(res.per_slow_capacity - 1.0)) <= 1e-14

    def test_quantized_runs(self):
        sc = Scenario(16, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2)
        caps = run(McConfig(sc, 30, 200, seed=4)).per_slow_capacity
        assert np.all(caps >= 0)


def _static_block(rows, n, a, seed):
    """Link states, link phases and LOS phasors of a block of static slow
    samples, with row link counts spread over 0..n."""
    rng = np.random.default_rng(seed)
    avail = rng.random((rows, n)) < rng.random((rows, 1))
    phi = rng.random((rows, n)) * 2 * np.pi
    los = a * np.exp(2j * np.pi * rng.random(rows))
    return phi, avail, los


class TestStaticCapacities:
    @pytest.mark.parametrize("a", [0.0, 1.3])
    @pytest.mark.parametrize("rows, n, links", [
        (300, 30, None), (40, 12, None), (256, 300, None), (40, 12, "empty tail"),
        (1, 30, None), (1, 30, 0), (5, 30, 0), (1, 30, 30)])
    def test_matches_symbol_capacity_per_row(self, rows, n, links, a):
        phi, avail, los = _static_block(rows, n, a, seed=[rows, n])
        if links in (0, n):  # no link or every link in each row
            avail[:] = links > 0
        elif rows > 1:  # no link and every link, next to the rest
            avail[0], avail[-1] = False, True
            if links == "empty tail":  # the last rows add no phasor
                avail[1], avail[-3:] = True, False
        n_avail = avail.sum(axis=1)
        # long rows too: at n = 300, past numpy's 128-term pairwise block
        assert links in (0, n) or rows == 1 or (
            n_avail.min() == 0 and n_avail.max() == n
            and np.sum(n_avail > min(n // 2, 128)) > 1)
        c, s = np.cos(phi[avail]), np.sin(phi[avail])  # row-major
        caps = _static_capacities(c, s, n_avail, los)
        # the reference is symbol_capacity's formula: each row's phasors
        # summed on their own in float64, then model._capacity
        stops = np.cumsum(n_avail)
        re, im = (np.array([part[stop - k : stop].sum() for stop, k in zip(stops, n_avail)])
                  for part in (c, s))
        ref = _capacity(los.real + re, los.imag + im)
        few = n_avail <= 2  # one addition at most: every order has the same bits
        np.testing.assert_array_equal(caps[few], ref[few])
        # two orders of summing k terms of size <= 1 differ by at most
        # k^2 * eps; allow twice that, delta, on each part of h, and carry
        # it through log2(1 + |h|^2) to first order
        ref, k = ref[~few], n_avail[~few]
        h, delta = np.sqrt(np.exp2(ref) - 1.0), 2.0 * k**2 * np.finfo(float).eps
        bound = ((2.0 * np.sqrt(2.0) * h * delta + 2.0 * delta**2)
                 / ((1.0 + h * h) * np.log(2.0)) + 4.0 * np.spacing(ref))
        assert np.all(np.abs(caps[~few] - ref) <= bound)


class TestUnitPhasors:
    @staticmethod
    def _rng(*key):
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))

    def test_unit_modulus(self):
        c, s = _unit_phasors(self._rng(1, 2), 2**20)
        assert c.dtype == s.dtype == np.float64
        assert np.max(np.abs(np.hypot(c, s) - 1.0)) <= 4 * np.spacing(1.0)

    def test_exact_map_of_the_first_kept_points(self):
        # x from the first half of a batch of words, y from the second,
        # each the top 53 bits of a word as a signed integer; points in the
        # open disk of radius 2^52 are kept in order. c and s are each
        # within 2 ulps of their exact rational value
        count = 300
        c, s = _unit_phasors(self._rng(3, 4), count)
        words = self._rng(3, 4).bit_generator.random_raw(2 * _pairs_for(count))
        x, y = (words.view(np.int64) >> 11).reshape(2, -1).tolist()
        kept = [(u, v) for u, v in zip(x, y) if 0 < u * u + v * v < 2**104][:count]
        assert len(kept) == count
        exact_c = [Fraction(u * u - v * v, u * u + v * v) for u, v in kept]
        exact_s = [Fraction(2 * u * v, u * u + v * v) for u, v in kept]
        ulp = Fraction(np.spacing(1.0))
        for got, exact in ((c, exact_c), (s, exact_s)):
            assert max(abs(Fraction(g) - e) for g, e in zip(got.tolist(), exact)) <= 2 * ulp

    @pytest.mark.parametrize("count", [1, 2, 7, 1000, 2560])
    def test_count(self, count):
        c, s = _unit_phasors(self._rng(count, 0), count)
        assert c.shape == s.shape == (count,)

    def test_zero_count_draws_nothing(self):
        rng, twin = self._rng(5, 6), self._rng(5, 6)
        c, s = _unit_phasors(rng, 0)
        assert c.shape == s.shape == (0,)
        np.testing.assert_array_equal(rng.bit_generator.random_raw(9),
                                      twin.bit_generator.random_raw(9))

    def test_short_batches(self, monkeypatch):
        # batches of 3 points: most calls need several, and the last one
        # keeps only what is still missing
        monkeypatch.setattr(montecarlo, "_pairs_for", lambda need: 3)
        c, s = _unit_phasors(self._rng(7, 8), 500)
        assert c.shape == s.shape == (500,)
        assert np.max(np.abs(np.hypot(c, s) - 1.0)) <= 4 * np.spacing(1.0)
        monkeypatch.undo()
        ref = _unit_phasors(self._rng(7, 8), 500)
        assert not np.array_equal(c, ref[0])

    def test_uniform_angles(self):
        draws, bins = 2**20, 64
        c, s = _unit_phasors(self._rng(9, 10), draws)
        level = np.floor((np.arctan2(s, c) / (2 * np.pi) + 0.5) * bins).astype(int)
        counts = np.bincount(np.minimum(level, bins - 1), minlength=bins)
        # Pearson's statistic for a uniform law exceeds this once in 10^6 draws
        stat = np.sum((counts - draws / bins) ** 2) / (draws / bins)
        assert counts.size == bins and stat <= chi2.isf(1e-6, bins - 1)


class TestFastLoop:
    @staticmethod
    def _reference_mean(rng, phi, los, levels, symbols):
        # the same chunks of levels, drawn afresh as one level on
        # 0..levels^g - 1 per group of g links and split into its g base-K
        # digits, the first link's most significant (the last group's
        # digits past the row's links are dropped), and each symbol's
        # channel by symbol_capacity's float64 formula on the float64
        # angles phi + 2 pi l / levels
        k, group = phi.size, _group_size(levels)
        powers = levels ** np.arange(group - 1, -1, -1)
        rows, total = _chunk_rows(k), 0.0
        for start in range(0, symbols, rows):
            m = min(rows, symbols - start)
            cells = _level_indices(rng, levels**group, (-(-k // group), m)).astype(np.int64)
            level = (cells[:, None, :] // powers[:, None] % levels).reshape(-1, m)[:k]
            theta = level.T * (2 * np.pi / levels)
            total += float(symbol_capacity(phi, theta, los).sum())
        return total / symbols

    @pytest.mark.parametrize("levels", [_HOPPING_LEVELS, 2, 3, 5])
    @pytest.mark.parametrize("a", [0.0, 1.5])
    def test_work_arrays_match_symbol_capacity(self, a, levels):
        # one block: every link first, so that the later rows follow a full
        # one; then no link, one link, and three links, whose row is three
        # chunks, the last of odd length. The 12-link row is 8 + 4 links
        # at 2 levels, 5 + 5 + 2 at 3 and 3 x 4 at 5. The reference reads
        # the link phases as the arctan2 of the phasors
        n, symbols = 12, 2 * _chunk_rows(3) + 5
        key = np.array([levels, int(10 * a)], dtype=np.uint64)
        rng, twin = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        n_avail = np.array([n, 0, 1, 3])
        phi = np.random.default_rng(5).random(n_avail.sum()) * 2 * np.pi
        c, s = np.cos(phi), np.sin(phi)
        los = a * np.exp(1j * (0.7 + np.arange(4)))
        means = _fast_means(c, s, n_avail, los, rng, levels, symbols)
        phase, stops = np.arctan2(s, c), np.cumsum(n_avail)
        ref = np.array([
            self._reference_mean(twin, phase[stop - k : stop], los[i], levels, symbols)
            for i, (stop, k) in enumerate(zip(stops, n_avail))])
        # both draw the same levels: the twin stream ends where rng does
        np.testing.assert_array_equal(rng.bit_generator.random_raw(4),
                                      twin.bit_generator.random_raw(4))
        # both channels are float64 sums of k phasors, each a few ulps off
        # the exact one; log2(1 + |h|^2) moves by at most 1/ln 2 times
        # |h|'s error. The bound allows 8 eps a phasor and k eps a partial
        # sum of size up to a + k, with a factor of two to spare, and 4 ulps
        # for the two averages (the row without links is exact here)
        eps = np.finfo(float).eps
        bound = 2 / np.log(2) * n_avail * (8 + a + n_avail) * eps + 4 * np.spacing(ref)
        assert np.all(np.abs(means - ref) <= bound)

    def test_group_size(self):
        # the most links whose levels one byte holds: K^g <= 256
        sizes = {levels: _group_size(levels) for levels in (2, 3, 4, 5, 6, 7, 16, 17, 256)}
        assert sizes == {2: 8, 3: 5, 4: 4, 5: 3, 6: 3, 7: 2, 16: 2, 17: 1, 256: 1}

    def test_memory_bounded_by_the_chunk(self):
        # one always-on row of 64 links and 10^6 symbols is 6.4e7 phases,
        # 64 MB of one-byte levels as one array; chunk by chunk it peaks
        # near 0.9 MB
        config = McConfig(Scenario(64, 1.0), 1, 10**6, 3)
        run(McConfig(Scenario(64, 1.0), 1, 10, 3))  # imports and caches outside
        tracemalloc.start()
        try:
            res = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_avail.tolist() == [64]
        assert peak <= 8 * 2**20

    def test_hopping_grid_moments(self):
        # the K-point average of a trigonometric polynomial of degree below
        # K is its mean over the circle: every moment of a hopping phasor
        # of degree below 256 is that of a uniform phase
        theta = 2 * np.pi * np.arange(_HOPPING_LEVELS) / _HOPPING_LEVELS
        m = np.arange(1, _HOPPING_LEVELS)[:, None]
        assert _HOPPING_LEVELS == 256
        assert np.max(np.abs(np.exp(1j * m * theta).mean(axis=1))) <= 1e-13
        assert np.mean(np.cos(theta) ** 2) == pytest.approx(1 / 2, abs=1e-15)
        assert np.mean(np.cos(theta) ** 4) == pytest.approx(3 / 8, abs=1e-15)


class TestLevels:
    @pytest.mark.parametrize("levels", [2, 3, 5, 7, 256])
    def test_uniform_on_the_grid(self, levels):
        draws = 200 * levels
        rng = np.random.Generator(np.random.Philox(key=[levels, 0]))
        x = _levels(rng, levels, (draws // 8, 8))
        step = np.float32(2 * np.pi / levels)
        level = np.rint(x / step.astype(float)).astype(np.int64)
        assert x.dtype == np.float32 and x.shape == (draws // 8, 8)
        np.testing.assert_array_equal(np.multiply(level, step, dtype=np.float32), x)
        counts = np.bincount(level.ravel(), minlength=levels)
        assert counts.size == levels and np.all(counts > 0)
        # Pearson's statistic for a uniform law exceeds this once in 10^6 draws
        stat = np.sum((counts - draws / levels) ** 2) / (draws / levels)
        assert stat <= chi2.isf(1e-6, levels - 1)

    @pytest.mark.parametrize("levels", [3, 4])
    def test_zero_size(self, levels):
        # a slow sample with no active link draws a k = 0 chunk
        rng = np.random.Generator(np.random.Philox(key=[0, 0]))
        for shape in ((0, 4096), (7, 0)):
            x = _levels(rng, levels, shape)
            assert x.shape == shape and x.dtype == np.float32


class TestMcResult:
    def test_strict_ecdf(self):
        res = McResult(np.array([1.0, 1.0, 2.0, 3.0]), np.array([1, 1, 2, 2]),
                       McConfig(Scenario(2, 0.5), 4, 1))
        assert res.outage_at(1.0) == 0.0
        assert res.outage_at(1.0 + 1e-12) == 0.5
        assert res.outage_at(10.0) == 1.0

    def test_scalar_rate_gives_a_float(self):
        # a scalar rate read a 1-element array, where analytic.outage
        # gives a float; an array of rates still gives an array
        res = McResult(np.array([1.0, 2.0]), np.array([1, 2]),
                       McConfig(Scenario(2, 0.5), 2, 1))
        assert type(res.outage_at(1.5)) is float
        assert type(res.outage_at(np.float64(1.5))) is float
        np.testing.assert_array_equal(res.outage_at([1.5]), [0.5])
        np.testing.assert_array_equal(res.outage_at(np.array([0.5, 1.5, 2.5])),
                                      [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("rate", [np.nan, -1.0, [1.0, np.nan], [-1e-300]])
    def test_bad_rate_rejected(self, rate):
        # read 1.0 at NaN and 0.0 at -1, where analytic.outage raises
        res = McResult(np.array([1.0, 2.0]), np.array([1, 2]),
                       McConfig(Scenario(2, 0.5), 2, 1))
        with pytest.raises(ValueError, match="rate must be a number >= 0"):
            res.outage_at(rate)

    def test_compares_and_hashes_by_identity(self):
        # the generated __eq__ compared the capacity arrays, which raised
        # numpy's ambiguous-truth ValueError, and the result was unhashable
        config = McConfig(Scenario(4, 0.5), 300, 10, 2)
        a, b = run(config), run(config)
        assert a == a and a != b and {a: 1}[a] == 1
        assert hash(a) != hash(b)
        np.testing.assert_array_equal(a.per_slow_capacity, b.per_slow_capacity)

    def test_n_avail_follows_link_law(self):
        sc = Scenario(6, (0.2, 0.35, 0.5, 0.65, 0.8, 0.9), 0.5, Scheme.PERFECT)
        slow = 10 * 256
        res = run(McConfig(sc, slow, 1, seed=41))
        np.testing.assert_array_equal(
            res.per_slow_capacity, np.log2(1.0 + (0.5 + res.n_avail) ** 2))
        ana = sc.link_count_distribution().cdf
        emp = np.array([np.mean(res.n_avail <= k) for k in range(7)])
        sigma = np.sqrt(ana * (1 - ana) / slow)
        assert np.all(np.abs(emp - ana) <= 3 * sigma)

    def test_nan_capacity_rejected(self):
        # NaN passed the old `any(cap < -1e-12)` check and read as a high capacity
        with pytest.raises(ValueError, match="capacities must be nonnegative"):
            McResult(np.array([1.0, np.nan, 2.0]), np.array([1, 1, 2]),
                     McConfig(Scenario(2, 0.5), 3, 1))

    @pytest.mark.parametrize("n_avail", [
        [1, 1, 2], [1, 1, 2, 3], [1, -1, 2, 2], [1.0, 1.0, 2.0, 2.0]])
    def test_n_avail_validation(self, n_avail):
        with pytest.raises(ValueError):
            McResult(np.array([1.0, 1.0, 2.0, 3.0]), np.array(n_avail),
                     McConfig(Scenario(2, 0.5), 4, 1))


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

    @pytest.mark.parametrize("k_levels", [3, 255])
    def test_moments_with_rejected_levels(self, k_levels):
        # no power of two, so some level draws are rejected and drawn again;
        # a sum S of n cos(U) has E S^2 = n/2 and E S^4 = 3n/8 + 3n(n-1)/4
        n, samples = 5, 2 * 10**5
        mean, var = quantized_sum_moments(n, k_levels, samples, seed=k_levels)
        mu4 = 3 * n / 8 + 3 * n * (n - 1) / 4
        assert abs(mean) <= 4 * np.sqrt(n / 2 / samples)
        assert abs(var - n / 2) <= 4 * np.sqrt((mu4 - (n / 2) ** 2) / samples)

    @pytest.mark.parametrize("seed", [-1, 2.5, 2**64])
    def test_seed_checked_as_mc_config(self, seed):
        with pytest.raises(ValueError) as config_error:
            McConfig(Scenario(4, 0.5), 10, 10, seed=seed)
        with pytest.raises(ValueError, match=re.escape(str(config_error.value))):
            quantized_sum_samples(3, 4, 10, seed=seed)

    def test_whole_seeds(self):
        np.testing.assert_array_equal(quantized_sum_samples(3, 4, 50, seed=3.0),
                                      quantized_sum_samples(3, 4, 50, seed=3))

    def test_validation(self):
        with pytest.raises(ValueError):
            quantized_sum_moments(0, 4, 10)
        with pytest.raises(ValueError):
            quantized_sum_moments(4, 1, 10)
        # 2.5 levels were drawn as 0 or 1 on a 2 pi/2.5 grid
        with pytest.raises(ValueError, match="k_levels must be a whole number"):
            quantized_sum_moments(4, 2.5, 10)
        np.testing.assert_array_equal(quantized_sum_samples(3, 4.0, 50, seed=1),
                                      quantized_sum_samples(3, 4, 50, seed=1))
