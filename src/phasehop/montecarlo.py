"""Deterministic two-timescale Monte-Carlo channel simulator.

Slow samples come in blocks of 256 rows, and block b draws from the Philox
stream keyed by (seed, b), in this order: the link states avail (m x n
uniforms compared with the link probabilities), then the channel phases
phi (m x n, uniform on [0, 2*pi)), then the LOS phase u (m uniforms, drawn
at a = 0 too). `_block` alone knows this layout. Perfect stops after the
link states: its capacity reads only the link counts n_avail. The other
schemes pass the drawn arrays to their evaluator, which returns one
capacity per row: `_static_capacities(phi, avail, n_avail, los)` for
static, with los = a*exp(2j*pi*u) the LOS phasors, and the fast loop
`_fast_means(phi, avail, los, rng, quant_levels, symbols)` for hopping and
quantized, which draws the surface phases of each row in turn from the
block's generator rng, after the slow draws.
Results are therefore bit-identical for any number of workers, which are
threads over blocks; with one block or one worker the blocks run in the
calling thread. Static is evaluated a whole block at a time: cos and sin
are taken once over the block's active phases, row-major, and each row's
phasors are summed as one segment of a single reduceat. That order of
summation is not `symbol_capacity`'s, so a row of k >= 3 links is
within a rounding bound of it (k^2 * eps on each part of h) rather than
bit for bit.

The fast loop draws its surface phases in float32 from the grid of K
levels 2*pi*l/K: the quantized scheme's K, or K = 256 for continuous
hopping, so that each phase costs one byte of a raw 64-bit Philox word.
256 levels lose nothing the loop can see. Given the slow phases, the
fast-loop mean averages, link by link, a periodic function of the surface
phase: with A the rest of the channel, 1 + |A + e^{jz}|^2 =
2 + |A|^2 + 2|A|cos z has no zero, and stays off the log's branch cut, for
|Im z| < acosh(sqrt 2) ~ 0.881, whatever A is. Averaging it over a K-point
grid is the trapezoid rule on a function analytic in that strip, so it
errs by O(exp(-0.881 K)) (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014): at K = 256 the mean
of a slow sample's fast loop given its slow phases equals the
continuous-phase mean within about n * 1e-88 bits for n links, and every
moment of the phasors of degree below 256 is exact. So for continuous
hopping the expected fast-loop mean given n links is C(n, a), whatever the
slow phases; the loop adds only noise to that table and serves as its
independent cross-check.

The angles and their cos/sin are float32 and their sums over the links
float64, through `model._angle_capacity`, the formula `symbol_capacity`
uses too. A symbol's capacity stays within 1.2e-6 bits per active link of
the float64 result on the same phases (tests/test_model.py), and the
float32 grid step, 2.8e-8 relative off 2*pi/K, moves a fast-loop mean by
at most 1.3e-7 bits per link; both are far inside the loop's own noise.
The static path keeps float64: its cos/sin are the floor of its cost, but
float32 would lose digits of the capacities themselves.

The phases are drawn link-major, k links x symbols, and handed to the
formula transposed, so its float64 sums over the links run along
contiguous memory. A level l is the top bits of one byte of a raw 64-bit
Philox word for K <= 256, of two bytes for K <= 65536 and of four beyond;
values >= K are rejected, which makes the draw exactly uniform. Every
fast-loop and quantized-sum chunk holds about 2^18 phases (1 MB of
float32), so that its temporaries stay in cache. The chunks reuse two
float32 work arrays, held per block of the fast loop and per call of
`quantized_sum_samples`: the angles are drawn into the first and the link
phases added in place, the cosines go into the second and the sines over
the first. No chunk allocates an array of its phases' size, so the heap
neither grows nor is trimmed once per chunk.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import Scenario, Scheme, _angle_capacity, _capacity
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


def _checked_seed(seed) -> int:
    """seed as an int: a whole number in [0, 2^64), the range of a Philox key word."""
    seed = whole_number(seed, 0, "seed")
    if seed >= 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _stream(seed: int, b: int) -> np.random.Generator:
    """The Philox stream keyed by the two 64-bit words (seed, b). A list key
    would become float64 from seed 2^63 up, and merge or wrap those seeds."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))


@dataclass(frozen=True)
class McConfig:
    """Simulation protocol: scenario, sample counts on both timescales and
    the seed of the counter-based generator."""

    scenario: Scenario
    slow_samples: int
    fast_samples: int
    seed: int = 0

    def __post_init__(self):
        for name in ("slow_samples", "fast_samples"):
            object.__setattr__(self, name, whole_number(getattr(self, name), 1, name))
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        if self.slow_samples * self.fast_samples > 10**10:
            raise ValueError(
                f"{self.slow_samples} x {self.fast_samples} samples exceed "
                "the 1e10 work guard"
            )


@dataclass(frozen=True)
class McResult:
    """Per-slow-sample ergodic capacities in bits and available link counts."""

    per_slow_capacity: np.ndarray
    n_avail: np.ndarray
    config: McConfig
    _sorted: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "_sorted", np.sort(cap))

    def outage_at(self, rates) -> float | np.ndarray:
        """Empirical outage Pr(C_erg < R): strict left counts at each rate,
        a float for a scalar rate and an array for an array, as in
        analytic.outage. A NaN or negative rate raises ValueError."""
        x, scalar = _nonnegatives(rates, "rate")
        return _like(self._sorted.searchsorted(x, side="left") / self._sorted.size, scalar)


def _chunk_rows(width: int) -> int:
    """Rows of `width` phases that fill one chunk (at least one row)."""
    return max(1, _CHUNK // max(width, 1))


def _levels(rng, levels: int, shape, out=None) -> np.ndarray:
    """float32 draws from the phase grid 2*pi*l/levels, l = 0..levels-1,
    written into out (a float32 array of that shape) if it is given.

    l is the top b = (levels - 1).bit_length() bits of each value cut from
    raw 64-bit words of rng's bit generator in the smallest unsigned type
    that holds levels - 1: one byte for up to 256 levels, the grid of
    continuous hopping, two bytes up to 65536 and four beyond (the low end
    of a word first, on a little-endian machine). Values >= levels are
    drawn again until they fall below it, so l is exactly uniform; a power
    of two draws nothing again. At 2^24 levels each uint32 half gives its
    top 24 bits, which is exactly Generator.random(dtype=float32) *
    float32(2*pi) on the same words."""
    dtype = np.min_scalar_type(levels - 1)
    if dtype.kind != "u":
        raise ValueError(f"at most 2^64 levels fit a Philox word, got {levels}")
    shift = dtype.type(8 * dtype.itemsize - (levels - 1).bit_length())

    def draw(count):
        words = rng.bit_generator.random_raw(-(-count * dtype.itemsize // 8))
        values = words.view(dtype)[:count]
        if shift:  # 256, 65536 and 2^32 levels take whole values
            values >>= shift
        return values

    level = draw(math.prod(shape))
    if levels & (levels - 1):  # a power of two rejects nothing
        redo = np.flatnonzero(level >= levels)
        while redo.size:
            level[redo] = fresh = draw(redo.size)
            redo = redo[np.flatnonzero(fresh >= levels)]
    return np.multiply(level.reshape(shape), np.float32(_TWO_PI / levels), out=out,
                       dtype=np.float32)


def _static_capacities(phi: np.ndarray, avail: np.ndarray, n_avail: np.ndarray,
                       los: np.ndarray) -> np.ndarray:
    """Capacity of each row's channel los + sum of exp(j*phi) over its
    available links, the value of symbol_capacity(zeros(k),
    phi[i, avail[i]][None], los[i]) for each row i with k links, a whole
    block at a time.

    phi[avail] is row-major, so each row's active phases are one segment,
    and cos and sin over them are summed per segment by one reduceat. That
    sums in another order than symbol_capacity's row sum, so a row of k >= 3
    links may differ from it by rounding: each part of h by at most
    k^2 * eps, twice the error bound of any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2). Rows of at most 2 links keep
    its bits."""
    active = phi[avail]
    linked = n_avail > 0  # reduceat would give an empty segment one term
    starts = (np.cumsum(n_avail) - n_avail)[linked]
    re, im = np.zeros(n_avail.size), np.zeros(n_avail.size)
    re[linked] = np.add.reduceat(np.cos(active), starts)
    im[linked] = np.add.reduceat(np.sin(active), starts)
    return _capacity(los.real + re, los.imag + im)


def _block(config: McConfig, probs: np.ndarray, b: int):
    """Capacities and link counts of the slow samples in block b: the one
    place that knows a block's stream layout (see the module docstring)."""
    sc = config.scenario
    m = min(_BLOCK, config.slow_samples - b * _BLOCK)
    rng = _stream(config.seed, b)
    avail = rng.random((m, sc.n_elements)) < probs
    n_avail = avail.sum(axis=1)
    if sc.scheme is Scheme.PERFECT:  # reads nothing more of the stream
        return _capacity(sc.los_amplitude + n_avail, 0.0), n_avail
    phi = rng.random((m, sc.n_elements)) * _TWO_PI
    u = rng.random(m)  # drawn at a = 0 too, which keeps the stream in step
    los = (sc.los_amplitude * np.exp(1j * _TWO_PI * u) if sc.los_amplitude
           else np.zeros(m, complex))
    if sc.scheme is Scheme.STATIC:
        return _static_capacities(phi, avail, n_avail, los), n_avail
    return _fast_means(phi, avail, los, rng, sc.quant_levels, config.fast_samples), n_avail


def _fast_means(phi: np.ndarray, avail: np.ndarray, los: np.ndarray, rng,
                quant_levels: int | None, symbols: int) -> np.ndarray:
    """Mean capacity of each row over `symbols` symbols: its active link
    phases phi[i, avail[i]] and LOS phasor los[i] stay fixed, and its
    surface phases are drawn from rng on the grid of quant_levels levels
    (256 for continuous hopping, quant_levels None), row after row and a
    chunk at a time, into two float32 work arrays held for the block. A
    chunk's angles are link-major, k x rows, and go to the channel formula
    transposed, so that its float64 sums over the links run along
    contiguous memory."""
    levels = quant_levels or _HOPPING_LEVELS
    work = [np.empty(max(_CHUNK, phi.shape[1]), np.float32) for _ in range(2)]
    means = np.empty(los.size)
    for i, (row, active) in enumerate(zip(phi, avail)):
        link = row[active].astype(np.float32)[:, None]
        k, rows, total = link.shape[0], _chunk_rows(link.shape[0]), 0.0
        for start in range(0, symbols, rows):
            m = min(rows, symbols - start)
            ang, cos = (w[: k * m].reshape(k, m) for w in work)
            _levels(rng, levels, (k, m), out=ang)
            ang += link
            total += float(_angle_capacity(ang.T, los[i], cos.T).sum())
        means[i] = total / symbols
    return means


def run(config: McConfig, workers: int = 1) -> McResult:
    """Simulate all slow samples, one block per task on up to `workers`
    threads; with one block or one worker, in the calling thread."""
    workers = whole_number(workers, 1, "workers")
    probs = config.scenario.prob_vector
    n_blocks = -(-config.slow_samples // _BLOCK)
    threads = min(workers, n_blocks)
    task = functools.partial(_block, config, probs)
    if threads == 1:  # a one-thread pool adds ~0.5 ms of start-up and hand-offs
        blocks = list(map(task, range(n_blocks)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(task, range(n_blocks)))
    caps, n_avail = zip(*blocks)
    return McResult(np.concatenate(caps), np.concatenate(n_avail), config)


def quantized_sum_samples(n: int, k_levels: int, samples: int, seed: int = 0):
    """Draws of sum_i cos(phi_i + theta_i) with phi uniform and theta on the
    k_levels-point phase grid, drawn and summed as in the fast loop. phi is
    drawn as continuous hopping draws it, on the 256-point grid from one byte
    of a Philox word each, which leaves every moment of the sum of degree
    below 256 as for a uniform phi. Phases and cosines are float32 and
    link-major, in two work arrays held for the call, and the sum is
    float64. The seed is checked as McConfig checks it."""
    n = whole_number(n, 1, "n")
    k_levels = whole_number(k_levels, 2, "k_levels")
    samples = whole_number(samples, 1, "samples")
    rng = _stream(_checked_seed(seed), 0)
    out = np.empty(samples)
    chunk = _chunk_rows(n)
    work = [np.empty(n * chunk, np.float32) for _ in range(2)]
    for pos in range(0, samples, chunk):
        m = min(chunk, samples - pos)
        phi, theta = (w[: n * m].reshape(n, m) for w in work)
        _levels(rng, _HOPPING_LEVELS, (n, m), out=phi)
        _levels(rng, k_levels, (n, m), out=theta)
        phi += theta
        out[pos : pos + m] = np.cos(phi, out=phi).sum(axis=0, dtype=float)
    return out


def quantized_sum_moments(
    n: int, k_levels: int, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Empirical mean and variance of the quantized cosine sum."""
    x = quantized_sum_samples(n, k_levels, samples, seed)
    return float(x.mean()), float(x.var())
