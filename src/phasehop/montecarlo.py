"""Deterministic two-timescale Monte-Carlo channel simulator.

Slow realizations (link availability and channel phases) are drawn from
counter-based Philox streams keyed by (seed, slow index), so results are
bit-identical for a fixed config regardless of how many workers split the
slow loop. The fast loop averages the instantaneous capacity over the
per-symbol surface phases.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import Scenario, Scheme, symbol_capacity

__all__ = [
    "McConfig",
    "McResult",
    "run",
    "quantized_sum_samples",
    "quantized_sum_moments",
]

_TWO_PI = 2.0 * np.pi
_FAST_CHUNK = 4096


@dataclass(frozen=True)
class McConfig:
    """Simulation protocol: scenario, sample counts on both timescales and
    the seed of the counter-based generator."""

    scenario: Scenario
    slow_samples: int
    fast_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.slow_samples < 1 or self.fast_samples < 1:
            raise ValueError("slow_samples and fast_samples must be >= 1")
        if self.slow_samples * self.fast_samples > 10**10:
            raise ValueError(
                f"{self.slow_samples} x {self.fast_samples} samples exceed "
                "the 1e10 work guard"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McResult:
    """Per-slow-realization ergodic capacities in bits."""

    per_slow_capacity: np.ndarray
    config: McConfig
    _sorted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cap = np.asarray(self.per_slow_capacity, dtype=float)
        if np.any(cap < -1e-12):
            raise ValueError("capacities must be nonnegative")
        object.__setattr__(self, "per_slow_capacity", cap)
        object.__setattr__(self, "_sorted", np.sort(cap))

    def outage_at(self, rates) -> np.ndarray:
        """Empirical outage Pr(C_erg < R): strict left counts at each rate."""
        r = np.atleast_1d(np.asarray(rates, dtype=float))
        counts = np.searchsorted(self._sorted, r, side="left")
        return counts / self._sorted.size


def _slow_stream(seed: int, slow_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, slow_index]))


def _capacity_one_slow(config: McConfig, probs: np.ndarray, slow_index: int) -> float:
    sc = config.scenario
    rng = _slow_stream(config.seed, slow_index)
    n = sc.n_elements
    a = sc.los_amplitude
    idx = np.flatnonzero(rng.random(n) < probs)
    phi = rng.random(n) * _TWO_PI
    phi_los = rng.random() * _TWO_PI

    if sc.scheme is Scheme.PERFECT:
        return float(np.log2(1.0 + (a + idx.size) ** 2))
    if idx.size == 0:
        return float(np.log2(1.0 + a * a))
    phi_act = phi[idx]
    los = complex(a * np.cos(phi_los), a * np.sin(phi_los))
    if sc.scheme is Scheme.STATIC:
        return float(symbol_capacity(phi_act, np.zeros((1, idx.size)), los)[0])

    total = 0.0
    remaining = config.fast_samples
    while remaining > 0:
        m = min(_FAST_CHUNK, remaining)
        if sc.scheme is Scheme.QUANTIZED:
            theta = rng.integers(0, sc.quant_levels, size=(m, idx.size))
            theta = theta * (_TWO_PI / sc.quant_levels)
        else:
            theta = rng.random((m, idx.size)) * _TWO_PI
        total += float(symbol_capacity(phi_act, theta, los).sum())
        remaining -= m
    return total / config.fast_samples


def run(config: McConfig, workers: int = 1) -> McResult:
    """Simulate all slow realizations; bit-identical for any worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    probs = config.scenario.prob_vector
    indices = range(config.slow_samples)
    if workers == 1:
        caps = [_capacity_one_slow(config, probs, k) for k in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            caps = list(pool.map(lambda k: _capacity_one_slow(config, probs, k),
                                 indices))
    return McResult(np.asarray(caps), config)


def quantized_sum_samples(n: int, k_levels: int, samples: int, seed: int = 0):
    """Draws of sum_i cos(phi_i + theta_i) with phi uniform and theta on the
    k_levels-point phase grid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k_levels < 2:
        raise ValueError(f"k_levels must be >= 2, got {k_levels}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = np.empty(samples)
    pos = 0
    chunk = max(1, 2_000_000 // n)
    while pos < samples:
        m = min(chunk, samples - pos)
        phi = rng.random((m, n)) * _TWO_PI
        theta = rng.integers(0, k_levels, size=(m, n)) * (_TWO_PI / k_levels)
        out[pos : pos + m] = np.cos(phi + theta).sum(axis=1)
        pos += m
    return out


def quantized_sum_moments(
    n: int, k_levels: int, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Empirical mean and variance of the quantized cosine sum."""
    x = quantized_sum_samples(n, k_levels, samples, seed)
    return float(x.mean()), float(x.var())
