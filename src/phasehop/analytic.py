"""Closed-form and quadrature-based capacities and outage probabilities.

Covers the ergodic capacity under phase hopping (exact via the phasor-sum
law and approximate via the exponential integral), the outage mixtures
over the random link count for all four schemes, eps-outage capacities,
and the general-fading outage approximation.

Outage and eps-capacity take a float or an array of rates (or eps) and
return a float or an array of the same shape, by one code path. A NaN or
negative rate raises ValueError; a rate too large for 2^R is an outage.
Outage is Pr(C < R): a rate on a capacity plateau is not an outage,
except as outage_perfect states.
"""
from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .hankel import PhasorSumDistribution
from .model import Scenario, Scheme
from .specfun import cal_e, cal_e_inverse, marcum_q1, quantile

__all__ = [
    "CapacityMethod",
    "EmpiricalCdf",
    "erg_capacity_nlos",
    "erg_capacity_los",
    "outage_hopping",
    "eps_capacity",
    "outage_static_fixed",
    "outage_static",
    "outage_perfect",
    "outage_general_fading",
    "min_outage",
]

_LN2 = np.log(2.0)


class CapacityMethod(enum.Enum):
    """Exact phasor-sum quadrature vs the exponential-integral approximation.

    For static-phase outage the exact member selects the phasor-sum cdf
    (NLOS only) and the approximate member the Rayleigh/Rician tail forms.
    """

    EXACT_HANKEL = "exact"
    APPROX_EI = "approx"


@functools.lru_cache(maxsize=4096)
def _capacity_nlos_exact(n: int) -> float:
    """Exact NLOS ergodic capacity, written via the survival function:
    C = integral over (0, n) of (1 - F_S(s)) * 2s / ((1+s^2) ln 2) ds,
    which avoids the integrable pdf singularity at s = n."""
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    dist = PhasorSumDistribution(n)

    def w(s):
        return (1.0 - dist.cdf(s)) * 2.0 * s / ((1.0 + s * s) * _LN2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            w, 0.0, float(n),
            points=list(range(1, n)),
            limit=max(400, 50 + 10 * n),
            epsabs=1e-9, epsrel=1e-9,
        )
    return float(val)


def erg_capacity_nlos(n_avail: int, method: CapacityMethod) -> float:
    """Ergodic capacity in bits under phase hopping with n_avail NLOS links."""
    if n_avail < 0:
        raise ValueError(f"n_avail must be >= 0, got {n_avail}")
    if n_avail == 0:
        return 0.0
    if method is CapacityMethod.APPROX_EI:
        return cal_e(1.0 / n_avail) / _LN2
    return _capacity_nlos_exact(int(n_avail))


@functools.lru_cache(maxsize=4096)
def _capacity_los(n: int, a: float) -> float:
    if n == 0:
        return float(np.log2(1.0 + a * a))
    tol = 1e-12
    s_max = (a + np.sqrt(n * np.log(1.0 / tol))) ** 2 + 10.0

    def integrand(s):
        # e^{-(a^2+s)/n} I0(2a sqrt(s)/n) written with the scaled Bessel
        # function so large arguments cannot overflow
        r = np.sqrt(s)
        return (
            np.log2(1.0 + s) / n
            * np.exp(-((r - a) ** 2) / n)
            * special.i0e(2.0 * a * r / n)
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            integrand, 0.0, s_max, limit=400, epsabs=1e-10, epsrel=1e-10
        )
    return float(val)


def erg_capacity_los(
    n_avail: int, a: float, method: CapacityMethod = CapacityMethod.APPROX_EI
) -> float:
    """Ergodic capacity in bits under phase hopping with a LOS component of
    amplitude a, averaging the noncentral chi-square gain law. At a = 0 it
    is erg_capacity_nlos; the exact method is available for a = 0 only."""
    if n_avail < 0:
        raise ValueError(f"n_avail must be >= 0, got {n_avail}")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if a == 0.0:
        return erg_capacity_nlos(n_avail, method)
    if method is CapacityMethod.EXACT_HANKEL:
        raise ValueError("exact ergodic capacity is available for a = 0 only")
    return _capacity_los(int(n_avail), float(a))


@functools.lru_cache(maxsize=256)
def _capacity_table(n: int, a: float, method: CapacityMethod) -> np.ndarray:
    """Read-only ergodic capacities C(0), ..., C(n), strictly increasing."""
    table = np.array([erg_capacity_los(i, a, method) for i in range(n + 1)])
    table.setflags(write=False)
    return table


def _checked(values, name: str) -> np.ndarray:
    """values as a float array of at least one dimension; NaN or negative
    entries raise ValueError."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(x >= 0.0):
        raise ValueError(f"{name} must be a number >= 0, got {values}")
    return x


def _like(result: np.ndarray, values):
    """A float if the input values were a scalar, else the array result."""
    return float(result[0]) if np.ndim(values) == 0 else result


def _snr(rates: np.ndarray) -> np.ndarray:
    """2^R - 1, infinite where 2^R overflows."""
    with np.errstate(over="ignore"):
        return np.power(2.0, rates) - 1.0


def outage_hopping(
    scenario: Scenario, rate, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage probability under (quantized) phase hopping at each rate.

    Mixture of unit steps at the per-link-count ergodic capacities, weighted
    by the link-count law; strict-inequality convention, so a rate exactly
    equal to a capacity plateau is not an outage. Quantized hopping uses the
    continuous-phase value (large-N asymptotic).
    """
    if scenario.scheme not in (Scheme.HOPPING, Scheme.QUANTIZED):
        raise ValueError(f"scheme must be hopping or quantized, got {scenario.scheme}")
    r = _checked(rate, "rate")
    caps = _capacity_table(scenario.n_elements, scenario.los_amplitude, method)
    cdf0 = np.concatenate(([0.0], scenario.link_count_distribution().cdf))
    # searchsorted counts the link numbers whose capacity lies below r
    return _like(cdf0[np.searchsorted(caps, r, "left")], rate)


def eps_capacity(
    scenario: Scenario, eps, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """eps-outage capacity at each eps: the largest rate whose outage does
    not exceed eps."""
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    dist = scenario.link_count_distribution()
    k = np.minimum(quantile(dist, e), dist.support_max)
    a = scenario.los_amplitude
    if scenario.scheme in (Scheme.HOPPING, Scheme.QUANTIZED):
        return _like(_capacity_table(dist.support_max, a, method)[k], eps)
    if scenario.scheme is Scheme.PERFECT:
        if a != 0.0:
            raise ValueError("perfect-adjustment outage is defined for a = 0 only")
        return _like(np.log2(1.0 + k * k), eps)
    # static: invert the continuous outage curve, one root search per eps
    r_max = float(np.log2(1.0 + (a + scenario.n_elements) ** 2))
    lo = 1e-12
    top, bottom = outage_static(scenario, np.array([r_max, lo]), method)
    out = np.where(top <= e, r_max, 0.0)
    inside = (top > e) & (bottom <= e)
    out[inside] = [optimize.brentq(lambda r: outage_static(scenario, r, method) - t,
                                   lo, r_max, xtol=1e-10) for t in e[inside]]
    return _like(out, eps)


def _static_fixed(n_avail: int, snr: np.ndarray, a: float, mode: CapacityMethod):
    if mode is CapacityMethod.EXACT_HANKEL:
        if a != 0.0:
            raise ValueError("exact static outage is available for a = 0 only")
        s = np.sqrt(snr)
        out = (s >= n_avail).astype(float)
        inside = (s > 0.0) & (s < n_avail)
        dist = PhasorSumDistribution(n_avail)
        out[inside] = [dist.cdf(float(x)) for x in s[inside]]
        return out
    if a == 0.0:
        return 1.0 - np.exp(-snr / n_avail)
    return 1.0 - marcum_q1(np.sqrt(2.0 * a * a / n_avail), np.sqrt(2.0 * snr / n_avail))


def outage_static_fixed(n_avail: int, rate, a: float, mode: CapacityMethod):
    """Outage at each rate with static phases, conditioned on n_avail >= 1
    active links.

    Exact mode evaluates the phasor-sum cdf at sqrt(2^R - 1) and requires
    a = 0; approximate mode uses the exponential (NLOS) or Marcum-Q (LOS)
    tail valid for large link counts.
    """
    if n_avail < 1:
        raise ValueError(f"n_avail must be >= 1, got {n_avail}")
    return _like(_static_fixed(n_avail, _snr(_checked(rate, "rate")), a, mode), rate)


def outage_static(
    scenario: Scenario, rate, mode: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage at each rate with static phases, averaged over the link-count
    law.

    The zero-link term is the deterministic LOS-only channel, an outage
    exactly when rate exceeds log2(1+a^2) (strict).
    """
    r = _checked(rate, "rate")
    dist = scenario.link_count_distribution()
    a = scenario.los_amplitude
    snr = _snr(r)
    total = np.where(r > np.log2(1.0 + a * a), dist.pmf[0], 0.0)
    for i in range(1, dist.support_max + 1):
        w = dist.pmf[i]
        if w == 0.0:
            continue
        total = total + w * _static_fixed(i, snr, a, mode)
    return _like(np.minimum(1.0, total), rate)


def outage_perfect(scenario: Scenario, rate):
    """Outage at each rate with perfect phase adjustment (NLOS): the
    link-count cdf at floor(sqrt(2^R - 1)), since |H| = n_avail when all
    phasors align. At a plateau R = log2(1+k^2) this counts k links as an
    outage whenever 2^R - 1 rounds to k^2 or above."""
    if scenario.los_amplitude != 0.0:
        raise ValueError("perfect-adjustment outage is defined for a = 0 only")
    r = _checked(rate, "rate")
    cdf = scenario.link_count_distribution().cdf
    k = np.minimum(np.floor(np.sqrt(_snr(r))), cdf.size - 1).astype(int)
    out = np.append(cdf[:-1], 1.0)[k]  # every count k >= n is at or below R
    # capacities are nonnegative, never strictly below 0
    return _like(np.where(r == 0.0, 0.0, out), rate)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step cdf, either from raw samples or an explicit
    (x, F(x)) table."""

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if x.shape != f.shape or x.ndim != 1 or x.size == 0:
            raise ValueError("x and f must be nonempty 1-d vectors of equal length")
        if np.any(np.diff(x) < 0):
            raise ValueError("x must be sorted ascending")
        if np.any(np.diff(f) < 0) or f[0] < 0 or f[-1] > 1 + 1e-12:
            raise ValueError("f must be a nondecreasing cdf table in [0, 1]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", np.minimum(f, 1.0))

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        s = np.sort(np.asarray(samples, dtype=float))
        return cls(s, np.arange(1, s.size + 1) / s.size)

    def __call__(self, x: float) -> float:
        idx = int(np.searchsorted(self.x, x, side="right"))
        return 0.0 if idx == 0 else float(self.f[idx - 1])


def outage_general_fading(rate: float, sigma2_cdf: EmpiricalCdf) -> float:
    """Outage under phase hopping for a general fading law of the summed
    link power sigma^2: the cdf evaluated at 1 / (2 E^{-1}(R ln 2)) where
    E(x) = -e^x Ei(-x)."""
    if rate <= 0:
        return sigma2_cdf(0.0)
    return sigma2_cdf(1.0 / (2.0 * cal_e_inverse(rate * _LN2)))


def min_outage(scenario: Scenario) -> float:
    """Smallest attainable hopping outage: probability that no link exists."""
    return float(np.prod(1.0 - scenario.prob_vector))
