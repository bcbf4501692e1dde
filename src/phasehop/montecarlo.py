"""Deterministic two-timescale Monte-Carlo channel simulator.

Slow samples come in blocks of 256 rows, and block b draws from the Philox
stream keyed by (seed, b), in this order: the link states (m x n raw
64-bit words), then one unit phasor c + js per active link, row-major
(row 0's links, then row 1's, ...), by `_unit_phasors`, then the LOS
phase u (m uniforms, drawn at a = 0 too). Philox is counter-based, so a
stream is set by its key alone (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011): each thread holds one generator, and
`_stream` re-keys it to (seed, b) with counter 0 and an empty buffer
instead of building one per block. A link is up when its word w has
w >> 11 < ceil(p * 2^53), computed once per run: the same test as
(w >> 11) * 2^-53 < p, the uniform that Generator.random makes of w,
with no float conversion.
`_block` alone knows this layout. Perfect stops after the link states:
its capacity reads only the link counts n_avail. The other schemes pass
the drawn arrays to their evaluator, which returns one capacity per row:
`_static_capacities(c, s, n_avail, los)` for static, with
los = a*exp(2j*pi*u) the LOS phasors, and the fast loop
`_fast_means(c, s, n_avail, los, rng, quant_levels, symbols)` for hopping
and quantized, which draws the surface phases of each row in turn from
the block's generator rng, after the slow draws.
Results are therefore bit-identical for any number of workers, which are
threads over blocks; with one block or one worker the blocks run in the
calling thread.

The link phasors are drawn without trig (von Neumann, "Various techniques
used in connection with random digits", 1951): a point uniform in the
unit disk at angle t maps to the unit phasor at angle 2t, uniform on the
circle, with no cos or sin taken. Static is evaluated a whole block
at a time in float64: each row's phasors are one segment, and the real
and the imaginary parts are summed per segment by one reduceat each. That
order of summation is not a row sum's, so a row of k >= 3 links is within
a rounding bound of it (k^2 * eps on each part of h) rather than bit for
bit. The fast loop reads the same draws as complex link phasors
P = c + js.

The fast loop draws its surface phases as integer levels l of the grid
2*pi*l/K: the quantized scheme's K, or K = 256 for continuous hopping.
One byte of a raw 64-bit Philox word holds the levels of a group of
g = floor(log_K 256) links, so a hopping phase costs one byte and a
K = 2 phase one bit. 256 levels lose nothing the loop can see, so the
simulator takes at most 256 quantized levels. Given the slow phases, the
fast-loop mean averages, link by link, a periodic function of the
surface phase: with A the rest of the channel,
1 + |A + e^{jz}|^2 = 2 + |A|^2 + 2|A|cos z has no zero, and stays off
the log's branch cut, for |Im z| < acosh(sqrt 2) ~ 0.881, whatever A is.
Averaging it over a K-point grid is the trapezoid rule on a function
analytic in that strip, so it errs by O(exp(-0.881 K))
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014): at K = 256 the mean of a slow sample's fast loop
given its slow phases equals the continuous-phase mean within about
n * 1e-88 bits for n links, and every moment of the phasors of degree
below 256 is exact. So for continuous hopping the expected fast-loop mean
given n links is C(n, a), whatever the slow phases; the loop adds only
noise to that table and serves as its independent cross-check.

A symbol's channel is h = los + sum_j P_j W[l_j] in complex128, with W
the cached table of the K grid phasors e^{2*pi*j*l/K}. A row's k links
go in ceil(k/g) groups of g links, in link order, with g the largest
such that K^g <= 256 (`_group_size`: 8 at K = 2, 2 from 7 to 16, 1 from
17 up), and zero links fill the last group. Each row computes its
rotated phasors P_j W once, adds its LOS phasor to the first link's, and
sums them into one table of K^g entries per group (at most 256
entries, 4 KB). A symbol costs one gather per group, by the group's
drawn level, and ceil(k/g) - 1 adds. No angle, cos or sin is
taken per symbol, and `model._capacity` reads h. Each product P_j W[l]
is within a few ulps of the exact phasor, so a symbol's h, and its
capacity, are float64 results on the drawn levels; a one-link row
without LOS reads 1 bit within 1e-15. At g = 1 (hopping, and K >= 17) a
group is one link and its table that link's K rotated phasors (4 KB a
link at K = 256).

The levels are drawn group-major, ceil(k/g) groups x symbols, so each
group's levels are one contiguous row of the chunk, and a chunk makes one
draw, ceil(k/g) gathers and ceil(k/g) - 1 adds. A level is the top bits
of one byte of a raw 64-bit Philox word, and values >= K^g are rejected,
which makes the draw exactly uniform on 0..K^g - 1; its g base-K digits,
the first link's most significant, are then independent uniform levels
of the group's links (a zero link's digit is drawn and not read). One
byte holds every grid the simulator takes: `McConfig` and
`quantized_sum_samples` share one check, `_checked_levels`, that refuses
K above 256. Every fast-loop and quantized-sum chunk holds about 2^18
phases (at most 256 KB of one-byte levels), so that a row of any length
needs memory for its tables and one chunk only: a chunk's channels are
16 bytes a symbol, 4 MB for a one-link row.
`quantized_sum_samples` keeps the float32 grid of `_levels`, and float32
cosines.
"""
from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import Scenario, Scheme, _capacity
from .specfun import _like, _nonnegatives, whole_number

__all__ = [
    "McConfig",
    "McResult",
    "run",
    "quantized_sum_samples",
    "quantized_sum_moments",
]

_TWO_PI = 2.0 * np.pi
_HOPPING_LEVELS = 2**8  # the phase grid of continuous hopping: one byte a phase
_CHUNK = 2**18  # phases per fast-loop or quantized-sum chunk
_BLOCK = 256
_DISK = 2.0**104  # x^2 + y^2 on the unit circle, x and y in units of 2^-52
_FAST_LOOP = (Scheme.HOPPING, Scheme.QUANTIZED)


def _checked_seed(seed) -> int:
    """seed as an int: a whole number in [0, 2^64), the range of a Philox key word."""
    seed = whole_number(seed, 0, "seed")
    if seed >= 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _checked_levels(levels: int | None) -> int | None:
    """levels, None or a whole number >= 2, if the simulator takes it: at
    most 256, where quantized hopping is continuous hopping."""
    if levels is not None and levels > _HOPPING_LEVELS:
        raise ValueError(
            f"the simulator takes at most {_HOPPING_LEVELS} quantization levels, "
            f"where quantized hopping is continuous hopping, got {levels}")
    return levels


class _ThreadGenerator(threading.local):
    """One Philox generator per thread, which `_stream` re-keys."""

    def __init__(self):
        self.rng = np.random.Generator(np.random.Philox(0))


_THREAD = _ThreadGenerator()


def _stream(seed: int, b: int) -> np.random.Generator:
    """The Philox stream keyed by the two 64-bit words (seed, b): the calling
    thread's generator, set to that key with counter 0 and an empty buffer,
    the state `Philox(key=[seed, b])` starts in, without the OS-entropy
    SeedSequence that building a Philox makes and the key replaces. It is
    valid until the thread's next call. The key words stay Python ints,
    exact up to 2^64 - 1 (as float64 they would merge seeds from 2^63 up)."""
    rng = _THREAD.rng
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, b)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,  # 4: no word left in the buffer
        "has_uint32": 0, "uinteger": 0}
    return rng


@dataclass(frozen=True)
class McConfig:
    """Simulation protocol: scenario, sample counts on both timescales and
    the seed of the counter-based generator. The work, slow samples times
    the fast samples of the hopping and quantized fast loop (1 for static
    and perfect, which run none), may be at most 1e10. A quantized scenario
    may have at most 256 levels: at 256 the fast loop is continuous hopping
    to about 1e-88 bits (see the module docstring)."""

    scenario: Scenario
    slow_samples: int
    fast_samples: int
    seed: int = 0

    def __post_init__(self):
        for name in ("slow_samples", "fast_samples"):
            object.__setattr__(self, name, whole_number(getattr(self, name), 1, name))
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        _checked_levels(self.scenario.quant_levels)
        fast = self.fast_samples if self.scenario.scheme in _FAST_LOOP else 1
        if self.slow_samples * fast > 10**10:
            raise ValueError(
                f"{self.slow_samples} x {fast} samples exceed the 1e10 work guard"
            )


@dataclass(frozen=True, eq=False)
class McResult:
    """Per-slow-sample ergodic capacities in bits and available link counts.
    Results compare and hash by identity: the generated field-tuple __eq__
    would compare arrays, whose truth value numpy refuses."""

    per_slow_capacity: np.ndarray
    n_avail: np.ndarray
    config: McConfig

    def __post_init__(self):
        cap = np.asarray(self.per_slow_capacity, dtype=float)
        if not np.all(cap >= -1e-12):  # NaN fails it too
            raise ValueError("capacities must be nonnegative")
        links = np.asarray(self.n_avail)
        n = self.config.scenario.n_elements
        if links.shape != cap.shape or links.dtype.kind not in "iu" or not (
                np.all(links >= 0) and np.all(links <= n)):
            raise ValueError(f"n_avail needs one link count in [0, {n}] per capacity")
        object.__setattr__(self, "per_slow_capacity", cap)
        object.__setattr__(self, "n_avail", links)

    def outage_at(self, rates) -> float | np.ndarray:
        """Empirical outage Pr(C_erg < R): strict left counts at each rate,
        a float for a scalar rate and an array for an array, as in
        analytic.outage. A NaN or negative rate raises ValueError."""
        x, scalar = _nonnegatives(rates, "rate")
        return _like(self._sorted.searchsorted(x, side="left") / self._sorted.size, scalar)

    @functools.cached_property
    def _sorted(self) -> np.ndarray:
        # sorted on the first outage_at call: most results never read it
        return np.sort(self.per_slow_capacity)


def _chunk_rows(width: int) -> int:
    """Rows of `width` phases that fill one chunk (at least one row)."""
    return max(1, _CHUNK // max(width, 1))


def _level_indices(rng, levels: int, shape) -> np.ndarray:
    """Levels l uniform on 0..levels-1, 2 <= levels <= 256, in a uint8
    array of the given shape.

    l is the top (levels - 1).bit_length() bits of one byte cut from raw
    64-bit words of rng's bit generator (the low byte of a word first, on
    a little-endian machine). Values >= levels are drawn again until they
    fall below it, so l is exactly uniform; a power of two draws nothing
    again."""
    shift = 8 - (levels - 1).bit_length()

    def draw(count):
        values = rng.bit_generator.random_raw(-(-count // 8)).view(np.uint8)[:count]
        if shift:  # 256 levels take whole bytes
            values >>= shift
        return values

    level = draw(math.prod(shape))
    if levels & (levels - 1):  # a power of two rejects nothing
        redo = np.flatnonzero(level >= levels)
        while redo.size:
            level[redo] = fresh = draw(redo.size)
            redo = redo[np.flatnonzero(fresh >= levels)]
    return level.reshape(shape)


def _levels(rng, levels: int, shape) -> np.ndarray:
    """float32 draws from the phase grid 2*pi*l/levels, the levels l of
    `_level_indices` times float32(2*pi/levels)."""
    return np.multiply(_level_indices(rng, levels, shape), np.float32(_TWO_PI / levels),
                       dtype=np.float32)


@functools.lru_cache(maxsize=None)
def _grid_phasors(levels: int) -> np.ndarray:
    """The grid phasors e^{2*pi*j*l/levels}, l = 0..levels-1, as a read-only
    complex128 array, built once per level count."""
    grid = np.exp(1j * (_TWO_PI / levels) * np.arange(levels))
    grid.setflags(write=False)
    return grid


def _pairs_for(need: int) -> int:
    """Points to draw so that `need` of them fall in the unit disk, pi/4 of
    the square, with about 3.4 standard deviations to spare: a second batch
    is drawn about once in 3,000 calls, for 3% more draws at need = 2,560."""
    return math.ceil(need * (4.0 / math.pi) + 2.0 * math.sqrt(need) + 8.0)


def _unit_phasors(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count unit phasors c + js of uniform angle, two float64 arrays,
    drawn from rng without trig (von Neumann, 1951).

    A batch of 2N raw 64-bit words gives N points (x, y), x from the first
    N words and y from the last N: the top 53 bits of each word read as a
    signed integer, a 53-bit uniform on [-1, 1) in units of 2^-52, which
    the map below does not see. Points outside the open unit disk, or at
    its centre, are rejected, and the first `need` kept points in order are
    used; a short batch is followed by another for the rest. A kept point
    at angle t maps to the phasor at angle 2t,
    ((x^2 - y^2) + 2jxy) / (x^2 + y^2), uniform on the circle. x - y,
    x + y and 2x are exact, so c and s are each within 2 ulps of 1 of their
    exact value, and |c + js| within 4 ulps of 1. A zero count draws
    nothing."""
    c, s = np.empty(count), np.empty(count)
    have = 0
    while have < count:
        need = count - have
        xy = rng.bit_generator.random_raw(2 * _pairs_for(need)).view(np.int64)
        xy >>= 11
        x, y = xy.astype(float).reshape(2, -1)
        r2 = x * x
        r2 += y * y
        keep = np.flatnonzero((r2 < _DISK) & (r2 > 0.0))[:need]
        x, y, r2 = x[keep], y[keep], r2[keep]
        done = have + keep.size
        cos, sin = c[have:done], s[have:done]
        np.add(x, x, out=sin)
        sin *= y
        sin /= r2
        np.subtract(x, y, out=cos)
        x += y
        cos *= x
        cos /= r2
        have = done
    return c, s


def _static_capacities(c: np.ndarray, s: np.ndarray, n_avail: np.ndarray,
                       los: np.ndarray) -> np.ndarray:
    """Capacity of each row's channel los + sum of its link phasors
    c + js, a whole block at a time: row i owns the n_avail[i] phasors
    after those of rows 0..i-1.

    Each row's phasors are one segment, and their real and imaginary
    parts are summed per segment by one reduceat each. That sums in
    another order than a row sum, so a row of k >= 3 links may differ from
    it by rounding: each part of h by at most k^2 * eps, twice the error
    bound of any order (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2). Rows of at most 2 links keep its bits."""
    starts = np.cumsum(n_avail)
    starts -= n_avail
    if n_avail.all():
        re, im = np.add.reduceat(c, starts), np.add.reduceat(s, starts)
    else:  # reduceat would give an empty segment one term
        linked = n_avail > 0
        re, im = np.zeros(n_avail.size), np.zeros(n_avail.size)
        re[linked] = np.add.reduceat(c, starts[linked])
        im[linked] = np.add.reduceat(s, starts[linked])
    re += los.real
    im += los.imag
    return _capacity(re, im)


def _link_limits(probs: np.ndarray) -> np.ndarray:
    """ceil(p * 2^53) for each link probability p, as uint64: a uniform
    u = (w >> 11) * 2^-53 from a raw word w, as Generator.random makes it,
    is below p exactly when w >> 11 is below this limit."""
    return np.ceil(probs * 2.0**53).astype(np.uint64)


def _link_counts(rng, rows: int, limits: np.ndarray) -> np.ndarray:
    """Active links in each of `rows` rows, from one raw word of rng per row
    and link, row-major: link i is up when its word's top 53 bits are below
    limits[i], the `_link_limits` of its probability."""
    words = rng.bit_generator.random_raw(rows * limits.size)
    words >>= 11
    return (words.reshape(rows, limits.size) < limits).sum(axis=1)


def _block(config: McConfig, limits: np.ndarray, b: int):
    """Capacities and link counts of the slow samples in block b: the one
    place that knows a block's stream layout (see the module docstring).
    limits are the `_link_limits` of the link probabilities."""
    sc = config.scenario
    m = min(_BLOCK, config.slow_samples - b * _BLOCK)
    rng = _stream(config.seed, b)
    n_avail = _link_counts(rng, m, limits)
    if sc.scheme is Scheme.PERFECT:  # reads nothing more of the stream
        return _capacity(sc.los_amplitude + n_avail, 0.0), n_avail
    c, s = _unit_phasors(rng, int(n_avail.sum()))
    u = rng.random(m)  # drawn at a = 0 too, which keeps the stream in step
    los = (sc.los_amplitude * np.exp(1j * _TWO_PI * u) if sc.los_amplitude
           else np.zeros(m, complex))
    if sc.scheme is Scheme.STATIC:
        return _static_capacities(c, s, n_avail, los), n_avail
    return (_fast_means(c, s, n_avail, los, rng, sc.quant_levels, config.fast_samples),
            n_avail)


def _group_size(levels: int) -> int:
    """Links whose levels one drawn byte holds: the largest g with
    levels^g <= 256, so 8 at 2 levels, 2 from 7 to 16 and 1 from 17 up."""
    return max(g for g in range(1, 9) if levels**g <= _HOPPING_LEVELS)


def _fast_means(c: np.ndarray, s: np.ndarray, n_avail: np.ndarray, los: np.ndarray,
                rng, quant_levels: int | None, symbols: int) -> np.ndarray:
    """Mean capacity of each row over `symbols` symbols: its link phasors
    P = c + js (laid out as for _static_capacities) and its LOS phasor
    los[i] stay fixed, and its surface phases are drawn from rng as levels
    of the grid of K = quant_levels levels (256 for continuous hopping,
    quant_levels None), row after row and a chunk at a time.

    A row's k links go in ceil(k/g) groups of g = `_group_size(K)`, in
    link order, and zero links fill the last group. One level on
    0..K^g - 1 stands for a group's links: its base-K digits, the first
    link's most significant, are their levels, each uniform on 0..K-1 and
    independent. Each row sums its rotated grid phasors P_j W, the first
    link's plus los[i], into one table of K^g entries per group: entry
    l_0 K^(g-1) + ... + l_(g-1) holds ((P_0 W[l_0] + P_1 W[l_1]) + ...),
    added in link order. A chunk draws the levels group-major, groups x
    rows, and a symbol's channel is one gather per group, summed. At g = 1
    (hopping, and K >= 17) a group is a link and its table P_j W."""
    levels = quant_levels or _HOPPING_LEVELS
    group = _group_size(levels)
    cells = levels**group
    grid = _grid_phasors(levels)
    phasor = c + 1j * s
    means = np.empty(los.size)
    stop = 0
    for i, k in enumerate(n_avail.tolist()):
        if not k:  # no link: no draw, and every symbol's channel is los[i]
            means[i] = _capacity(los.real[i], los.imag[i])
            continue
        link, stop = phasor[stop : stop + k], stop + k
        if k % group:  # zero links fill the last group
            link = np.concatenate((link, np.zeros(-k % group)))
        rotated = np.multiply.outer(link, grid)
        rotated[0] += los[i]
        rotated = rotated.reshape(-1, group, levels)
        table = rotated[:, 0]
        for j in range(1, group):
            table = np.add(table[:, :, None], rotated[:, j, None, :]).reshape(len(table), -1)
        rows, total = _chunk_rows(k), 0.0
        for start in range(0, symbols, rows):
            level = _level_indices(rng, cells, (len(table), min(rows, symbols - start)))
            h = table[0].take(level[0], mode="wrap")
            for row, lev in zip(table[1:], level[1:]):
                h += row.take(lev, mode="wrap")
            total += float(_capacity(h.real, h.imag).sum())
        means[i] = total / symbols
    return means


def run(config: McConfig, workers: int = 1) -> McResult:
    """Simulate all slow samples, one block per task on up to `workers`
    threads; with one block or one worker, in the calling thread."""
    workers = whole_number(workers, 1, "workers")
    limits = _link_limits(config.scenario.prob_vector)
    n_blocks = -(-config.slow_samples // _BLOCK)
    threads = min(workers, n_blocks)
    task = functools.partial(_block, config, limits)
    if threads == 1:  # a one-thread pool adds ~0.5 ms of start-up and hand-offs
        blocks = list(map(task, range(n_blocks)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(task, range(n_blocks)))
    caps, n_avail = zip(*blocks)
    return McResult(np.concatenate(caps), np.concatenate(n_avail), config)


def quantized_sum_samples(n: int, k_levels: int, samples: int, seed: int = 0):
    """Draws of sum_i cos(phi_i + theta_i) with phi uniform and theta on the
    k_levels-point phase grid, 2 <= k_levels <= 256 as McConfig takes them.
    phi's levels are drawn as continuous hopping draws them, on the
    256-point grid from one byte of a Philox word each, which leaves every
    moment of the sum of degree below 256 as for a uniform phi, whatever
    theta's grid. The phases are the float32 grids of `_levels`, link-major
    and a chunk at a time, their cosines float32 and the sum float64. The
    seed is checked as McConfig checks it."""
    n = whole_number(n, 1, "n")
    k_levels = _checked_levels(whole_number(k_levels, 2, "k_levels"))
    samples = whole_number(samples, 1, "samples")
    rng = _stream(_checked_seed(seed), 0)
    out = np.empty(samples)
    chunk = _chunk_rows(n)
    for pos in range(0, samples, chunk):
        m = min(chunk, samples - pos)
        phi = _levels(rng, _HOPPING_LEVELS, (n, m))
        phi += _levels(rng, k_levels, (n, m))
        out[pos : pos + m] = np.cos(phi, out=phi).sum(axis=0, dtype=float)
    return out


def quantized_sum_moments(
    n: int, k_levels: int, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Empirical mean and variance of the quantized cosine sum."""
    x = quantized_sum_samples(n, k_levels, samples, seed)
    return float(x.mean()), float(x.var())
