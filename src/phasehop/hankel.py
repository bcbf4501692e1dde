"""The law of the random phasor sum, and numerical Hankel transforms.

The distribution function of the sum of n unit phasors is a Fourier-Bessel
series over the zeros of J1 (Barakat 1974, Optica Acta 21); n = 1 and
n = 2 are closed forms. One evaluator, _cdf_grid, serves every caller: it
takes a whole array of amplitudes and a sorted set of link counts and sums
the series of every link count in one pass, from one cached table per link
set, in chunks of amplitudes that bound its temporary. The zeros of J1 come
from McMahon's expansion refined by Newton steps. The density is exact up
to n = 4 (Borwein, Straub, Wan and Zudilin 2012, Canad. J. Math. 64) and
the series' derivative from n = 5, in chunks of the same size.

The Hankel transform, the series' test oracle, integrates oscillatory and
often only conditionally convergent integrands block by block with adaptive
Gauss-Legendre rules and sums the blocks with Wynn's epsilon acceleration.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .model import _characteristic
from .specfun import _first_bad, whole_number

__all__ = ["AccuracyWarning", "hankel_transform", "PhasorSumDistribution"]


class AccuracyWarning(UserWarning):
    """Raised when the quadrature tail has not decayed below its budget."""


_NODE_COUNT = 200  # most oscillation blocks the Hankel quadrature sums
_BLOCK_TOL, _TAIL_TOL = 2e-11 * 0.005, 2e-9 * 0.005

# Fourier-Bessel cdf series: at most this many zeros of J1; the terms
# after the last coefficient above _NEGLIGIBLE are dropped (n = 3 to 12
# keep all of them, n = 20 keeps 165, n = 50 keeps 24).
_SERIES_TERMS = 1000
_NEGLIGIBLE = 1e-16
_CHUNK = 1 << 19  # most entries in one amplitudes x series-terms temporary


_gauss_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _wynn_epsilon(partial_sums: np.ndarray) -> float:
    """Limit estimate of a sequence of partial sums via the epsilon table."""
    e_curr = np.array(partial_sums, dtype=float)
    n = len(e_curr)
    e_prev = np.zeros(n + 1)
    best = e_curr[-1]
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
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])

    def evaluate(order: int, mask: np.ndarray):
        x, w = _gauss_legendre(order)
        t = mid[mask, None] + half[mask, None] * x[None, :]
        return half[mask] * (g(t.ravel()).reshape(t.shape) @ w)

    mask = np.ones(len(mid), dtype=bool)
    vals = evaluate(16, mask)
    for order in (32, 64, 128, 256, 512):
        new = evaluate(order, mask)
        converged = np.abs(new - vals[mask]) <= tol * (1.0 + np.abs(new))
        vals[mask] = new
        mask[mask] = ~converged
        if not mask.any():
            break
    return vals


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

    delta = np.pi / max(1.0, s)
    sums = np.empty(_NODE_COUNT)
    total, scale, k = 0.0, 0.0, 0
    while k < _NODE_COUNT:
        m = min(24, _NODE_COUNT - k)
        edges = delta * np.arange(k, k + m + 1)
        u = _block_integrals(g, edges, _BLOCK_TOL)
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
            if abs(est - est_short) <= _TAIL_TOL * max(1.0, abs(est)):
                return est
    result = _wynn_epsilon(sums[max(0, k - 64) : k])
    if last_term > 1e-8 * max(1e-300, abs(result)):
        warnings.warn(f"Hankel quadrature tail has not decayed (last term {last_term:.2e} "
                      f"vs result {result:.2e}) after {_NODE_COUNT} blocks",
                      AccuracyWarning, stacklevel=2)
    return result


def _three_link_density(s, gap):
    """Borwein's 2F1 form of p3(s) made elliptic, as scipy's hyp2f1 fails near
    s = 1; gap = |1 - s| comes apart, so that a caller can keep its digits."""
    d = np.maximum(16.0 * s, (3.0 - s) * (1.0 + s) ** 3)
    return 4.0 * s / (np.pi ** 2 * np.sqrt(d)) * special.ellipkm1(gap ** 3 * (3.0 + s) / d)


def _four_link_density(s: float) -> float:
    """(s/pi) times the integral over psi in (0, pi) of p3(r)/r, r = |sum of
    three phasors| with the fourth at angle psi to the total; r grows with
    psi, so the integral stops at p3's edge r = 3 and splits at r = 1."""
    from scipy import integrate  # only here: kept off the import path

    if s < 1e-100:  # gap^3 would underflow to a K of inf; p4(s) < 1e-97 here
        return 0.0

    def integrand(psi):
        # r^2 - 1 = s (s - 2 cos psi), in a form that keeps its digits at r = 1
        r2m1 = s * ((s - 2.0) + 4.0 * math.sin(0.5 * psi) ** 2)
        r = math.sqrt(1.0 + r2m1)
        return _three_link_density(r, abs(r2m1) / (1.0 + r)) / r

    top = math.acos(max(-1.0, (s * s - 8.0) / (2.0 * s)))
    val, _ = integrate.quad(integrand, 0.0, top, epsabs=1e-15, epsrel=1e-13, limit=200,
                            points=[math.acos(s / 2.0)] if s < 2.0 else None)
    return s / math.pi * val


@functools.lru_cache(maxsize=None)
def _j1_zeros() -> tuple[np.ndarray, np.ndarray]:
    """The first _SERIES_TERMS zeros gamma_m of J1, and gamma_m J0(gamma_m)^2.

    McMahon's expansion (Abramowitz and Stegun 9.5.12, mu = 4) in
    b = (m + 1/4) pi, then two Newton steps x - J1/J1' with
    J1'(x) = J0(x) - J1(x)/x: every zero is within 1 ulp of
    scipy.special.jn_zeros, in about 3% of its time.
    """
    b = (np.arange(1, _SERIES_TERMS + 1) + 0.25) * np.pi
    mu, w = 4.0, 1.0 / (8.0 * b)
    gamma = b - (mu - 1.0) * w * (1.0 + 4.0 * (7.0 * mu - 31.0) / 3.0 * w**2 + 32.0 * (
        83.0 * mu**2 - 982.0 * mu + 3779.0) / 15.0 * w**4 + 64.0 * (
        6949.0 * mu**3 - 153855.0 * mu**2 + 1585743.0 * mu - 6277237.0) / 105.0 * w**6)
    for _ in range(2):
        j1 = special.j1(gamma)
        gamma = gamma - j1 / (special.j0(gamma) - j1 / gamma)
    norm = gamma * special.j0(gamma) ** 2
    for table in (gamma, norm):
        table.setflags(write=False)
    return gamma, norm


def _cdf_series(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies gamma_m / n and coefficients
    phi(gamma_m / n) / (gamma_m J0(gamma_m)^2) of the cdf series of n >= 3
    phasors, phi their characteristic function, up to the last
    coefficient above _NEGLIGIBLE. _series_table holds them."""
    gamma, norm = _j1_zeros()
    coef = _characteristic(gamma / n, n) / norm
    terms = np.flatnonzero(np.abs(coef) > _NEGLIGIBLE)[-1] + 1
    return gamma[:terms] / n, coef[:terms]


@functools.lru_cache(maxsize=64)
def _series_table(links: tuple[int, ...]) -> tuple[int, np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """For sorted link counts: how many of them are 1 or 2, and the
    _cdf_series of all the others laid end to end, as frequencies,
    coefficients and the offset at which each link count's segment
    starts. The one cache of the series terms."""
    few = sum(k <= 2 for k in links)
    series = [_cdf_series(k) for k in links[few:]]
    freq = np.concatenate([[]] + [f for f, _ in series])
    coef = np.concatenate([[]] + [c for _, c in series])
    starts = np.cumsum([0] + [len(f) for f, _ in series[:-1]])
    for table in (freq, coef, starts):
        table.setflags(write=False)
    return few, freq, coef, starts


def _cdf_grid(links: np.ndarray, rho) -> np.ndarray:
    """F_k(rho-) = Pr(S_k < rho) for each amplitude rho >= 0 (an array of
    any shape; inf is allowed) and each k of the sorted, distinct link
    counts >= 1: an array of shape rho.shape + links.shape.

    k = 1 is 1[rho > 1], k = 2 is (2/pi) asin(rho/2), and every k >= 3 is
    the series F_k(rho) = u^2 + 2u sum_m J1(gamma_m rho/k) c_m, u = rho/k,
    clamped to [0, 1], with the c_m of _cdf_series. F_k is 1 where
    rho >= k, and the link counts k <= rho for every amplitude of a chunk
    are not evaluated. The series of all the others is one J1 call over
    the concatenated table and one segment sum per amplitude, in chunks of
    amplitudes whose temporary holds at most _CHUNK entries. Each
    amplitude's value is the same alone or in any array.
    """
    rho = np.asarray(rho, dtype=float)
    x = rho.reshape(-1, 1)
    few, freq, coef, starts = _series_table(tuple(links.tolist()))
    grid = np.ones((x.shape[0], links.size))
    if few:  # 1 and 2 lead the sorted links; (2/pi) asin(1) rounds to 1
        grid[:, :few] = np.where(links[:few] == 1, x > 1.0,
                                 np.arcsin(np.minimum(x, 2.0) / 2.0) * (2.0 / np.pi))
    series = links[few:]
    rows = max(1, _CHUNK // max(1, freq.size))
    for lo in range(0, x.shape[0], rows):
        xc = x[lo:lo + rows]
        first = series.searchsorted(xc.min(), "right")  # the first k above some rho
        if first == series.size:
            continue
        k, start = series[first:], starts[first]
        xs = np.minimum(xc, series[-1])  # keeps inf out; rho >= k is 1 anyway
        t = xs * freq[start:]  # the one temporary, worked in place
        special.j1(t, out=t)
        t *= coef[start:]
        terms = np.add.reduceat(t, starts[first:] - start, axis=-1)
        u = xs / k
        f = np.minimum(1.0, np.maximum(0.0, u * u + 2.0 * u * terms))
        grid[lo:lo + rows, few + first:] = np.where(xc < k, f, 1.0)
    return grid.reshape(rho.shape + links.shape)


@dataclass(frozen=True)
class PhasorSumDistribution:
    """Law of S = |sum of n_links unit phasors with iid uniform phases|.

    The support is [0, n_links]; n_links = 1 is the degenerate point mass
    at 1. Immutable and safe to share across threads.
    """

    n_links: int

    def __post_init__(self):
        object.__setattr__(self, "n_links", whole_number(self.n_links, 1, "n_links"))

    def _check_domain(self, s):
        ok = (0.0 <= s) & (s <= self.n_links)
        if not np.all(ok):
            raise ValueError(f"s={_first_bad(s, ok)} outside support [0, {self.n_links}]")

    def pdf(self, s):
        """Density at each s: a float for a float, else an array of the same
        shape. Closed forms for n <= 3 (0 for the point mass n = 1); one
        integral of p3 at n = 4, within 4e-14 relative of the 3F2 form; from
        n = 5 the cdf series' derivative (2s/n^2)[1 + sum_m gamma_m c_m J0(gamma_m
        s/n)], clamped at 0 and 0 at s = n. Against 40,000 terms it errs most at
        p_n's singular points n - 2, n - 4, ...: 1.3e-4 at n = 5 (s = 1; 3e-5 at
        3, 1e-7 below 0.9), 1.5e-6 at n = 6, 3.8e-9 at n = 8. The Hankel quadrature
        was closer where p5 is smooth (down to 3e-11), but 2.2e-4 off near s = 3."""
        x = np.asarray(s, dtype=float)
        self._check_domain(x)
        n = self.n_links
        if n == 1:
            out = np.zeros_like(x)
        elif n == 2:
            with np.errstate(divide="ignore"):
                out = 2.0 / (np.pi * np.sqrt(4.0 - x * x))
        elif n == 3:
            out = _three_link_density(x, np.abs(1.0 - x))
        elif n == 4:
            out = np.vectorize(_four_link_density, otypes=[float])(x)
        else:
            _, freq, coef, _ = _series_table((n,))
            weight, flat = n * freq * coef, x.reshape(-1)
            terms = np.empty(flat.shape)
            rows = max(1, _CHUNK // freq.size)
            for lo in range(0, flat.size, rows):  # as _cdf_grid chunks its amplitudes
                t = np.multiply.outer(flat[lo:lo + rows], freq)
                special.j0(t, out=t)
                t *= weight
                # summed row by row, so each value is the same for any array
                terms[lo:lo + rows] = t.sum(axis=-1)
            terms = terms.reshape(x.shape)
            out = np.where(x < n, np.maximum(0.0, 2.0 * x / n**2 * (1.0 + terms)), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, s):
        """Distribution function at each s: a float for a float, else an
        array of the same shape.

        F(s) = s^2/n^2 + (2s/n) sum_m J1(gamma_m s/n) J0(gamma_m/n)^n
        / (gamma_m J0(gamma_m)^2) over the zeros gamma_m of J1, clamped to
        [0, 1] (_cdf_grid); n = 1 is the step at 1, right-continuous, and
        n = 2 is (2/pi) asin(s/2).
        """
        x = np.asarray(s, dtype=float)
        self._check_domain(x)
        n = self.n_links
        out = (x >= 1.0).astype(float) if n == 1 else _cdf_grid(np.array([n]), x)[..., 0]
        return float(out) if out.ndim == 0 else out
