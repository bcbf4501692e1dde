"""The law of the random phasor sum, and numerical Hankel transforms.

The distribution function of the sum of n unit phasors is a Fourier-Bessel
series over the zeros of J1 (Barakat 1974, Optica Acta 21), evaluated for
a whole array of amplitudes at once; n = 1 and n = 2 are closed forms.

The Hankel transform serves the density for n >= 4 and is the test
oracle of the series. Its integrands (powers of J0 against another Bessel
kernel) are oscillatory and at small link counts only conditionally
convergent, so it splits the axis into blocks tied to the kernel's
oscillation, integrates each block with adaptive Gauss-Legendre rules, and
sums the block series with Wynn's epsilon acceleration.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .specfun import whole_numbers

__all__ = ["AccuracyWarning", "hankel_transform", "PhasorSumDistribution"]


class AccuracyWarning(UserWarning):
    """Raised when the quadrature tail has not decayed below its budget."""


# Quadrature budget: at most _NODE_COUNT oscillation blocks; block
# refinement stops at 2e-11*_STEP_H, the accelerated tail at 2e-9*_STEP_H.
_NODE_COUNT = 200
_STEP_H = 0.005

# Fourier-Bessel cdf series: at most this many zeros of J1; the terms
# after the last coefficient above _NEGLIGIBLE are dropped (n = 3 to 12
# keep all of them, n = 20 keeps 165, n = 50 keeps 24).
_SERIES_TERMS = 1000
_NEGLIGIBLE = 1e-16


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _wynn_epsilon(partial_sums: np.ndarray) -> float:
    """Limit estimate of a sequence of partial sums via the epsilon table."""
    s = np.asarray(partial_sums, dtype=float)
    n = len(s)
    e_prev = np.zeros(n + 1)
    e_curr = s.copy()
    best = s[-1]
    for k in range(1, n):
        m = n - k
        diff = e_curr[1 : m + 1] - e_curr[:m]
        with np.errstate(divide="ignore", invalid="ignore"):
            e_next = e_prev[1 : m + 1] + 1.0 / diff
        if not np.all(np.isfinite(e_next)):
            break
        if k % 2 == 0:
            best = e_next[-1]
        if np.any(np.abs(diff) < 1e-300):
            break
        e_prev, e_curr = e_curr[: m + 1], e_next
    return float(best)


def _block_integrals(g: Callable, edges: np.ndarray, tol: float) -> np.ndarray:
    """Gauss-Legendre integrals of g over consecutive intervals, refined
    per block by order doubling until stable."""
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def evaluate(order: int, mask: np.ndarray | None = None):
        x, w = _gauss_legendre(order)
        m, h = (mid, half) if mask is None else (mid[mask], half[mask])
        t = m[:, None] + h[:, None] * x[None, :]
        return h * (g(t.ravel()).reshape(t.shape) @ w)

    vals = evaluate(16)
    order = 32
    mask = np.ones(len(vals), dtype=bool)
    while True:
        new = evaluate(order, mask)
        converged = np.abs(new - vals[mask]) <= tol * (1.0 + np.abs(new))
        vals[mask] = new
        still = np.where(mask)[0][~converged]
        mask = np.zeros(len(vals), dtype=bool)
        mask[still] = True
        if not mask.any() or order >= 512:
            return vals
        order *= 2


def hankel_transform(f: Callable, order: int, s: float) -> float:
    """Hankel transform of order 0 or 1: integral of f(t)*J_order(s*t)*t dt
    over (0, inf), for s > 0."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    kernel = special.j1 if order == 1 else special.j0

    def g(t):
        return f(t) * kernel(s * t) * t

    block_tol = 2e-11 * _STEP_H
    tail_tol = 2e-9 * _STEP_H
    delta = np.pi / max(1.0, s)
    max_blocks = _NODE_COUNT
    sums = np.empty(max_blocks)
    total, scale, k = 0.0, 0.0, 0
    last_term = np.inf
    while k < max_blocks:
        m = min(24, max_blocks - k)
        edges = delta * np.arange(k, k + m + 1)
        u = _block_integrals(g, edges, block_tol)
        sums[k : k + m] = total + np.cumsum(u)
        total = sums[k + m - 1]
        scale = max(scale, float(np.abs(u).max()))
        last_term = float(np.abs(u[-3:]).max())
        k += m
        if k >= 8 and scale > 0 and last_term < 1e-14 * max(1.0, scale):
            return total
        if k >= 48:
            est = _wynn_epsilon(sums[max(0, k - 64) : k])
            est_short = _wynn_epsilon(sums[max(0, k - 48) : k])
            if abs(est - est_short) <= tail_tol * max(1.0, abs(est)):
                return est
    result = _wynn_epsilon(sums[max(0, k - 64) : k])
    if last_term > 1e-8 * max(1e-300, abs(result)):
        warnings.warn(
            f"Hankel quadrature tail has not decayed (last term {last_term:.2e} "
            f"vs result {result:.2e}) after {max_blocks} blocks",
            AccuracyWarning,
            stacklevel=2,
        )
    return result


def _j0_power(n: int) -> Callable:
    """J0(t)**n with the power taken in log space, keeping the sign."""

    def f(t):
        j = special.j0(t)
        out = np.zeros_like(j)
        nz = j != 0
        out[nz] = np.sign(j[nz]) ** n * np.exp(n * np.log(np.abs(j[nz])))
        return out

    return f


@functools.lru_cache(maxsize=None)
def _j1_zeros() -> np.ndarray:
    zeros = special.jn_zeros(1, _SERIES_TERMS)
    zeros.setflags(write=False)
    return zeros


@functools.lru_cache(maxsize=256)
def _cdf_series(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies gamma_m / n and coefficients
    J0(gamma_m / n)^n / (gamma_m J0(gamma_m)^2) of the cdf series of n
    phasors, up to the last coefficient above _NEGLIGIBLE."""
    gamma = _j1_zeros()
    coef = special.j0(gamma / n) ** n / (gamma * special.j0(gamma) ** 2)
    terms = np.flatnonzero(np.abs(coef) > _NEGLIGIBLE)[-1] + 1
    freq, coef = gamma[:terms] / n, coef[:terms]
    for table in (freq, coef):
        table.setflags(write=False)
    return freq, coef


@dataclass(frozen=True)
class PhasorSumDistribution:
    """Law of S = |sum of n_links unit phasors with iid uniform phases|.

    The support is [0, n_links]; n_links = 1 is the degenerate point mass
    at 1. Immutable and safe to share across threads.
    """

    n_links: int

    def __post_init__(self):
        whole_numbers(self.n_links, 1, "n_links")

    def _check_domain(self, s):
        if not np.all((0.0 <= s) & (s <= self.n_links)):
            raise ValueError(f"s={s} outside support [0, {self.n_links}]")

    def pdf(self, s: float) -> float:
        """Density at s, clamped to be nonnegative: closed form for n <= 3,
        Hankel quadrature otherwise."""
        self._check_domain(s)
        if self.n_links == 1:
            return 0.0
        if self.n_links == 2:
            return np.inf if s == 2.0 else 2.0 / (np.pi * math.sqrt(4.0 - s * s))
        if self.n_links == 3:
            # (4s / (pi^2 sqrt(d))) K(m), 1 - m = |1-s|^3 (3+s) / d: Borwein's
            # 2F1 form made elliptic, exact up to the log singularity at s = 1,
            # where the 2F1 argument rounds to 1 and scipy's hyp2f1 fails
            d = max(16.0 * s, (3.0 - s) * (1.0 + s) ** 3)
            return float(4.0 * s / (np.pi ** 2 * math.sqrt(d))
                         * special.ellipkm1(abs(1.0 - s) ** 3 * (3.0 + s) / d))
        if s == 0.0 or s == self.n_links:
            return 0.0
        val = s * hankel_transform(_j0_power(self.n_links), 0, s)
        if val < -1e-9:
            warnings.warn(
                f"phasor pdf markedly negative ({val:.2e}) at s={s}",
                AccuracyWarning,
                stacklevel=2,
            )
        return max(0.0, val)

    def cdf(self, s):
        """Distribution function at each s: a float for a float, else an
        array of the same shape.

        F(s) = s^2/n^2 + (2s/n) sum_m J1(gamma_m s/n) J0(gamma_m/n)^n
        / (gamma_m J0(gamma_m)^2) over the zeros gamma_m of J1, clamped to
        [0, 1]; n = 1 is the step at 1 and n = 2 is (2/pi) asin(s/2).
        """
        x = np.asarray(s, dtype=float)
        self._check_domain(x)
        n = self.n_links
        if n == 1:
            out = np.zeros_like(x)  # the step at s = 1 is set below
        elif n == 2:
            out = np.arcsin(x / 2.0) * (2.0 / np.pi)
        else:
            freq, coef = _cdf_series(n)
            u = x / n
            # summed row by row, so each value is the same for any array
            terms = (special.j1(np.multiply.outer(x, freq)) * coef).sum(axis=-1)
            out = np.clip(u * u + 2.0 * u * terms, 0.0, 1.0)
        out = np.where(x >= n, 1.0, out)
        return float(out) if out.ndim == 0 else out
