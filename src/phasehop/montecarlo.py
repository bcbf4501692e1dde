"""Deterministic two-timescale Monte-Carlo channel simulator.

Slow samples (link availability, channel phases and the LOS phase) come in
blocks of 256, and block b draws from the Philox stream keyed by (seed, b).
Results are therefore bit-identical for any number of workers, which are
threads over blocks: a run of at most 256 slow samples uses one thread.
Static and perfect are evaluated per block; hopping and quantized average
the capacity over per-symbol surface phases in a fast loop.

The fast loop draws those phases in float32: hopping on the grid of
2*pi/2^24 steps, quantized as float32 multiples of 2*pi/K, and
`symbol_capacity` then takes the angles and their cos/sin in float32 and
sums them in float64. A symbol's capacity stays within 1.2e-6 bits per
active link of the float64 result on the same phases (tests/test_model.py),
far inside the fast loop's own noise. Samples for a given seed differ from
those of the float64 loop. For continuous hopping the expected fast-loop
mean given n links is exactly C(n, a), whatever the slow phases, so the
loop adds only noise to that table and serves as its independent
cross-check.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import Scenario, Scheme, symbol_capacity
from .specfun import whole_numbers

__all__ = [
    "McConfig",
    "McResult",
    "run",
    "quantized_sum_samples",
    "quantized_sum_moments",
]

_TWO_PI = 2.0 * np.pi
_TWO_PI32 = np.float32(_TWO_PI)
_FAST_CHUNK = 4096
_BLOCK = 256


@dataclass(frozen=True)
class McConfig:
    """Simulation protocol: scenario, sample counts on both timescales and
    the seed of the counter-based generator."""

    scenario: Scenario
    slow_samples: int
    fast_samples: int
    seed: int = 0

    def __post_init__(self):
        for name, least in (("slow_samples", 1), ("fast_samples", 1), ("seed", 0)):
            object.__setattr__(self, name, whole_numbers(getattr(self, name), least, name))
        if self.slow_samples * self.fast_samples > 10**10:
            raise ValueError(
                f"{self.slow_samples} x {self.fast_samples} samples exceed "
                "the 1e10 work guard"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McResult:
    """Per-slow-sample ergodic capacities in bits and available link counts."""

    per_slow_capacity: np.ndarray
    n_avail: np.ndarray
    config: McConfig
    _sorted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cap = np.asarray(self.per_slow_capacity, dtype=float)
        if np.any(cap < -1e-12):
            raise ValueError("capacities must be nonnegative")
        links = np.asarray(self.n_avail)
        n = self.config.scenario.n_elements
        if links.shape != cap.shape or links.dtype.kind not in "iu" or not (
                np.all(links >= 0) and np.all(links <= n)):
            raise ValueError(f"n_avail needs one link count in [0, {n}] per capacity")
        object.__setattr__(self, "per_slow_capacity", cap)
        object.__setattr__(self, "n_avail", links)
        object.__setattr__(self, "_sorted", np.sort(cap))

    def outage_at(self, rates) -> np.ndarray:
        """Empirical outage Pr(C_erg < R): strict left counts at each rate."""
        r = np.atleast_1d(np.asarray(rates, dtype=float))
        counts = np.searchsorted(self._sorted, r, side="left")
        return counts / self._sorted.size


def _levels(rng, levels: int, shape) -> np.ndarray:
    """float32 draws from the phase grid 2*pi*l/levels, l = 0..levels-1; l
    is drawn in the smallest unsigned type that holds it."""
    level = rng.integers(0, levels, size=shape, dtype=np.min_scalar_type(levels - 1))
    return np.multiply(level, np.float32(_TWO_PI / levels), dtype=np.float32)


def _block(config: McConfig, probs: np.ndarray, b: int):
    """Capacities and link counts of the slow samples in block b."""
    sc = config.scenario
    m = min(_BLOCK, config.slow_samples - b * _BLOCK)
    rng = np.random.Generator(np.random.Philox(key=[config.seed, b]))
    avail = rng.random((m, sc.n_elements)) < probs
    phi = rng.random((m, sc.n_elements)) * _TWO_PI
    los = sc.los_amplitude * np.exp(1j * _TWO_PI * rng.random(m))
    n_avail = avail.sum(axis=1)
    if sc.scheme is Scheme.PERFECT:
        return np.log2(1.0 + (sc.los_amplitude + n_avail) ** 2), n_avail
    caps = np.empty(m)
    if sc.scheme is Scheme.STATIC:
        # one call per link count k; the static phases take the theta slot
        for k in np.unique(n_avail):
            rows = np.flatnonzero(n_avail == k)
            theta = phi[rows][avail[rows]].reshape(rows.size, k)
            caps[rows] = symbol_capacity(np.zeros(k), theta, los[rows])
        return caps, n_avail
    levels = sc.quant_levels
    for row in range(m):
        phi_act = phi[row, avail[row]]
        total = 0.0
        for start in range(0, config.fast_samples, _FAST_CHUNK):
            shape = (min(_FAST_CHUNK, config.fast_samples - start), phi_act.size)
            if sc.scheme is Scheme.QUANTIZED:
                theta = _levels(rng, levels, shape)
            else:
                theta = rng.random(shape, dtype=np.float32) * _TWO_PI32
            total += float(symbol_capacity(phi_act, theta, los[row]).sum())
        caps[row] = total / config.fast_samples
    return caps, n_avail


def run(config: McConfig, workers: int = 1) -> McResult:
    """Simulate all slow samples, one block per task on up to `workers` threads."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    probs = config.scenario.prob_vector
    n_blocks = -(-config.slow_samples // _BLOCK)
    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        blocks = list(pool.map(lambda b: _block(config, probs, b), range(n_blocks)))
    caps, n_avail = zip(*blocks)
    return McResult(np.concatenate(caps), np.concatenate(n_avail), config)


def quantized_sum_samples(n: int, k_levels: int, samples: int, seed: int = 0):
    """Draws of sum_i cos(phi_i + theta_i) with phi uniform and theta on the
    k_levels-point phase grid, drawn and summed as in the fast loop: phases
    and cosines in float32, the sum in float64."""
    n = whole_numbers(n, 1, "n")
    k_levels = whole_numbers(k_levels, 2, "k_levels")
    samples = whole_numbers(samples, 1, "samples")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = np.empty(samples)
    chunk = max(1, 2_000_000 // n)
    for pos in range(0, samples, chunk):
        m = min(chunk, samples - pos)
        phi = rng.random((m, n), dtype=np.float32) * _TWO_PI32
        theta = _levels(rng, k_levels, (m, n))
        out[pos : pos + m] = np.cos(phi + theta).sum(axis=1, dtype=float)
    return out


def quantized_sum_moments(
    n: int, k_levels: int, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Empirical mean and variance of the quantized cosine sum."""
    x = quantized_sum_samples(n, k_levels, samples, seed)
    return float(x.mean()), float(x.var())
