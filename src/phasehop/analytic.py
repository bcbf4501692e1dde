"""Closed-form and quadrature-based capacities and outage probabilities.

Covers the ergodic capacity under phase hopping (exact via the phasor-sum
law and approximate via the exponential integral), the outage mixtures
over the random link count for all four schemes, eps-outage capacities,
and the general-fading outage approximation.
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
    amplitude a, averaging the noncentral chi-square gain law. The exact
    method is available for a = 0 only, where it is the NLOS capacity."""
    if n_avail < 0:
        raise ValueError(f"n_avail must be >= 0, got {n_avail}")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if method is CapacityMethod.EXACT_HANKEL:
        if a != 0.0:
            raise ValueError("exact ergodic capacity is available for a = 0 only")
        return erg_capacity_nlos(n_avail, method)
    return _capacity_los(int(n_avail), float(a))


def _erg_capacity(i: int, a: float, method: CapacityMethod) -> float:
    if a == 0.0:
        return erg_capacity_nlos(i, method)
    return erg_capacity_los(i, a, method)


def _count_below(rate: float, n: int, a: float, method: CapacityMethod) -> int:
    """Number of link counts i in {0..n} with C_erg(i) < rate, found by
    bisection on the strictly increasing capacity sequence."""
    if not _erg_capacity(0, a, method) < rate:
        return 0
    if _erg_capacity(n, a, method) < rate:
        return n + 1
    lo, hi = 0, n  # C(lo) < rate <= C(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _erg_capacity(mid, a, method) < rate:
            lo = mid
        else:
            hi = mid
    return hi


def outage_hopping(
    scenario: Scenario, rate: float, method: CapacityMethod = CapacityMethod.APPROX_EI
) -> float:
    """Outage probability under (quantized) phase hopping at the given rate.

    Mixture of unit steps at the per-link-count ergodic capacities, weighted
    by the link-count law; strict-inequality convention, so a rate exactly
    equal to a capacity plateau is not an outage. Quantized hopping uses the
    continuous-phase value (large-N asymptotic).
    """
    if scenario.scheme not in (Scheme.HOPPING, Scheme.QUANTIZED):
        raise ValueError(f"scheme must be hopping or quantized, got {scenario.scheme}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    dist = scenario.link_count_distribution()
    k = _count_below(rate, scenario.n_elements, scenario.los_amplitude, method)
    if k == 0:
        return 0.0
    return float(dist.cdf[k - 1])


def eps_capacity(
    scenario: Scenario, eps: float, method: CapacityMethod = CapacityMethod.APPROX_EI
) -> float:
    """eps-outage capacity: the largest rate whose outage does not exceed eps."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    dist = scenario.link_count_distribution()
    a = scenario.los_amplitude
    if scenario.scheme in (Scheme.HOPPING, Scheme.QUANTIZED):
        k = quantile(dist, eps)
        return _erg_capacity(k, a, method)
    if scenario.scheme is Scheme.PERFECT:
        if a != 0.0:
            raise ValueError("perfect-adjustment outage is defined for a = 0 only")
        k = quantile(dist, eps)
        return float(np.log2(1.0 + k * k))
    # static: invert the continuous outage curve
    r_max = float(np.log2(1.0 + (a + scenario.n_elements) ** 2))
    if outage_static(scenario, r_max, method) <= eps:
        return r_max
    lo = 1e-12
    if outage_static(scenario, lo, method) > eps:
        return 0.0
    return float(
        optimize.brentq(
            lambda r: outage_static(scenario, r, method) - eps, lo, r_max, xtol=1e-10
        )
    )


def outage_static_fixed(
    n_avail: int, rate: float, a: float, mode: CapacityMethod
) -> float:
    """Outage with static phases conditioned on n_avail >= 1 active links.

    Exact mode evaluates the phasor-sum cdf at sqrt(2^R - 1) and requires
    a = 0; approximate mode uses the exponential (NLOS) or Marcum-Q (LOS)
    tail valid for large link counts.
    """
    if n_avail < 1:
        raise ValueError(f"n_avail must be >= 1, got {n_avail}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    snr = 2.0 ** rate - 1.0
    if mode is CapacityMethod.EXACT_HANKEL:
        if a != 0.0:
            raise ValueError("exact static outage is available for a = 0 only")
        s = np.sqrt(snr)
        if s >= n_avail:
            return 1.0
        if s == 0.0:
            return 0.0
        return PhasorSumDistribution(n_avail).cdf(float(s))
    if a == 0.0:
        return float(1.0 - np.exp(-snr / n_avail))
    return float(
        1.0 - marcum_q1(np.sqrt(2.0 * a * a / n_avail), np.sqrt(2.0 * snr / n_avail))
    )


def outage_static(
    scenario: Scenario, rate: float, mode: CapacityMethod = CapacityMethod.APPROX_EI
) -> float:
    """Outage with static phases, averaged over the link-count law.

    The zero-link term is the deterministic LOS-only channel, an outage
    exactly when rate exceeds log2(1+a^2) (strict).
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    dist = scenario.link_count_distribution()
    a = scenario.los_amplitude
    total = float(dist.pmf[0]) if rate > np.log2(1.0 + a * a) else 0.0
    for i in range(1, dist.support_max + 1):
        w = float(dist.pmf[i])
        if w == 0.0:
            continue
        total += w * outage_static_fixed(i, rate, a, mode)
    return min(1.0, total)


def outage_perfect(scenario: Scenario, rate: float) -> float:
    """Outage with perfect phase adjustment (NLOS): the link-count cdf at
    floor(sqrt(2^R - 1)), since |H| = n_avail when all phasors align."""
    if scenario.los_amplitude != 0.0:
        raise ValueError("perfect-adjustment outage is defined for a = 0 only")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if rate == 0.0:
        return 0.0  # capacities are nonnegative, never strictly below 0
    dist = scenario.link_count_distribution()
    k = int(np.floor(np.sqrt(2.0 ** rate - 1.0)))
    if k >= dist.support_max:
        return 1.0
    return float(dist.cdf[k])


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
