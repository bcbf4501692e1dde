"""Closed-form capacities and outage probabilities.

Covers the ergodic capacity under phase hopping (exact via the phasor-sum
law and approximate via its Gaussian counterpart, both one K1-weighted
Gauss-Legendre sum), the outage mixtures over the random link count for
all four schemes, eps-outage capacities, and the general-fading outage
approximation. `outage` serves every scheme; each per-scheme outage
function rejects a scenario of another scheme. A method is a
CapacityMethod or its value, such as "exact"; any other is a ValueError.
Each (scenario, method) has its tables built once, in bounded lru caches:
the step plateaus with the link-count cdf, and the static mixture's
evaluator, on which static eps-capacity runs one Brent search per eps.

Capacities take a whole number or an array of link counts, outage and
eps-capacity a float or an array of rates (or eps); each returns a float
or an array of the same shape, by one code path. A NaN or negative rate
raises ValueError; a rate too large for 2^R is an outage. Outage is
Pr(C < R): a rate on a capacity plateau is not an outage.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .hankel import PhasorSumDistribution
from .model import Scenario, Scheme, _capacity, _characteristic
from .specfun import (_amplitude, _first_bad, _like, _nonnegatives, cal_e, cal_e_inverse,
                      marcum_q1, quantile, whole_number, whole_numbers)

__all__ = [
    "CapacityMethod",
    "EmpiricalCdf",
    "erg_capacity_nlos",
    "erg_capacity_los",
    "outage",
    "outage_hopping",
    "eps_capacity",
    "outage_static_fixed",
    "outage_static",
    "outage_perfect",
    "outage_general_fading",
    "min_outage",
]

_LN2 = np.log(2.0)
_EPS_LO = 1e-12  # the lower end of the static eps-capacity bracket


class CapacityMethod(enum.Enum):
    """Exact phasor-sum law vs its Gaussian approximation.

    For ergodic capacity both members integrate a characteristic function
    against K1 (any LOS amplitude): the exact member that of the phasor
    sum, J0(t)^n, the approximate member that of the Gaussian CN(0, n),
    e^{-n t^2/4}, which at a = 0 is the exponential-integral closed form
    E(1/n)/ln 2. For static-phase outage the exact member selects the
    Fourier-Bessel phasor-sum cdf (NLOS only), and the approximate member
    the Rayleigh/Rician tail forms.
    """

    EXACT_HANKEL = "exact"
    APPROX_EI = "approx"


# Capacity rule: Gauss-Legendre of order _K1_ORDER on panels a quarter
# period of J0(k t) wide up to t = 14.5 pi, where K1(t) < 1e-20, with the
# first panel split geometrically _K1_GRADING times towards t = 0, where
# K1 has its 1/t and t log t terms.
_K1_ORDER = 16
_K1_GRADING = 8
# The rule for amplitude a has _K1_ORDER * (_K1_GRADING + 29 ceil(a)) nodes,
# a temporary row of them per link count; a budget of 100,000 nodes allows
# a up to 215 (99,888 nodes).
_K1_MAX_AMPLITUDE = (100_000 // _K1_ORDER - _K1_GRADING) // 29


@functools.lru_cache(maxsize=16)
def _k1_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights (2/ln 2) K1(t) w of the capacity rule, which
    resolves J0(a t) for every a <= k."""
    h = np.pi / (2 * k)
    edges = np.concatenate(([0.0], h * 2.0 ** np.arange(-_K1_GRADING, 0),
                            h * np.arange(1, 29 * k + 1)))
    x, w = np.polynomial.legendre.leggauss(_K1_ORDER)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = (0.5 * (hi + lo) + 0.5 * (hi - lo) * x).ravel()
    weights = (0.5 * (hi - lo) * w).ravel() * special.k1(t) * (2.0 / _LN2)
    for table in (t, weights):
        table.setflags(write=False)
    return t, weights


@functools.lru_cache(maxsize=256)
def _capacity_table(n: int, a: float, method: CapacityMethod) -> np.ndarray:
    """Read-only ergodic capacities C(0), ..., C(n) in bits with LOS
    amplitude a, strictly increasing:
    C(k, a) = (2/ln 2) * integral_0^inf (1 - phi(t)) K1(t) dt, from
    ln(1 + r^2) = 2 * integral_0^inf (1 - J0(r t)) K1(t) dt, where phi is
    _characteristic of the LOS phasor and k links (their Gaussian law for
    the approximate method, E(1/k)/ln 2 in closed form at a = 0)."""
    if method is CapacityMethod.APPROX_EI and a == 0.0:
        table = np.concatenate(([0.0], cal_e(1.0 / np.arange(1, n + 1)) / _LN2))
    else:
        if a > _K1_MAX_AMPLITUDE:
            raise ValueError(
                f"a must be at most {_K1_MAX_AMPLITUDE} for the capacity rule, got {a!r}")
        t, w = _k1_rule(max(1, math.ceil(a)))
        k = np.arange(n + 1)[:, None]
        rows = 1.0 - _characteristic(t, k, a, method is CapacityMethod.APPROX_EI)
        # each row summed on its own (pairwise), so C(k) is the same number
        # in every table that holds it. A one-row power would take numpy's
        # x*x fast path at k = 2, 1 ulp off the general one, so single
        # link counts are served from a table too.
        table = (rows * w).sum(axis=1)
        table[0] = _capacity(a, 0.0)  # no links: the LOS channel alone
    table.setflags(write=False)
    return table


def _capacities(n_avail, a: float, method: CapacityMethod):
    """C(k, a) for each whole link count k in n_avail, from the table up
    to the largest."""
    k = np.atleast_1d(whole_numbers(n_avail, 0, "n_avail"))
    table = _capacity_table(int(k.max(initial=0)), float(a), CapacityMethod(method))
    return _like(table[k], n_avail)


def erg_capacity_nlos(n_avail, method: CapacityMethod):
    """Ergodic capacity in bits under phase hopping with n_avail NLOS
    links: a float for a whole number, an array for an array of them."""
    return _capacities(n_avail, 0.0, method)


def erg_capacity_los(
    n_avail, a: float, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Ergodic capacity in bits under phase hopping with n_avail links and
    a LOS component of finite amplitude a: exact by the phasor-sum
    characteristic function, or approximate by the Gaussian one. A float
    for a whole number, an array for an array of them."""
    return _capacities(n_avail, _amplitude(a, "a"), method)


def _snr(rates: np.ndarray) -> np.ndarray:
    """2^R - 1, infinite where 2^R overflows."""
    with np.errstate(over="ignore"):
        return np.power(2.0, rates) - 1.0


def _require(scenario: Scenario, *schemes: Scheme) -> None:
    """ValueError unless the scenario's scheme is one of schemes."""
    if scenario.scheme not in schemes:
        names = " or ".join(s.value for s in schemes)
        raise ValueError(f"scheme must be {names}, got {scenario.scheme.value}")


@functools.lru_cache(maxsize=64)
def _step_table(scenario: Scenario,
                method: CapacityMethod) -> tuple[np.ndarray, np.ndarray]:
    """Read-only plateaus C(0), ..., C(N) of a step scheme, increasing in
    the link count, and the link-count cdf with a leading 0. The plateaus
    are the ergodic capacities under (quantized) hopping, or
    log2(1 + (a + k)^2) under perfect adjustment, where the k links align
    with the LOS phasor (the channel montecarlo simulates)."""
    n, a = scenario.n_elements, scenario.los_amplitude
    caps = (_capacity(a + np.arange(n + 1), 0.0) if scenario.scheme is Scheme.PERFECT
            else _capacity_table(n, a, method))
    cdf0 = np.concatenate(([0.0], scenario.link_count_distribution().cdf))
    for table in (caps, cdf0):
        table.setflags(write=False)
    return caps, cdf0


def _step_outage(scenario: Scenario, rate, method=CapacityMethod.APPROX_EI):
    """Pr(caps[K] < rate) over the link-count law K, for the plateaus caps
    of _step_table: searchsorted counts the link numbers whose capacity
    lies below each rate."""
    caps, cdf0 = _step_table(scenario, method)
    return _like(cdf0[np.searchsorted(caps, _nonnegatives(rate, "rate"), "left")], rate)


def outage(scenario: Scenario, rate,
           method: CapacityMethod = CapacityMethod.APPROX_EI):
    """Outage probability Pr(C < R) at each rate under the scenario's
    scheme: outage_hopping for hopping and quantized, outage_static for
    static and outage_perfect for perfect, whose plateaus need no method."""
    method = CapacityMethod(method)
    if scenario.scheme is Scheme.STATIC:
        return outage_static(scenario, rate, method)
    if scenario.scheme is Scheme.PERFECT:
        return outage_perfect(scenario, rate)
    return outage_hopping(scenario, rate, method)


def outage_hopping(
    scenario: Scenario, rate, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage probability under (quantized) phase hopping at each rate.

    Mixture of unit steps at the per-link-count ergodic capacities, weighted
    by the link-count law; strict-inequality convention, so a rate exactly
    equal to a capacity plateau is not an outage. Quantized hopping uses the
    continuous-phase value (large-N asymptotic).
    """
    _require(scenario, Scheme.HOPPING, Scheme.QUANTIZED)
    return _step_outage(scenario, rate, CapacityMethod(method))


def eps_capacity(
    scenario: Scenario, eps, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """eps-outage capacity at each eps: the largest rate whose outage does
    not exceed eps."""
    method = CapacityMethod(method)
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    k = quantile(scenario.link_count_distribution(), e)
    if scenario.scheme is not Scheme.STATIC:
        return _like(_step_table(scenario, method)[0][k], eps)
    # static: invert the continuous outage curve, one root search per eps
    evaluate = _static_mixture(scenario, method)
    r_max, top, bottom = _static_bracket(scenario, method)
    out = np.where(top <= e, r_max, 0.0)
    inside = (top > e) & (bottom <= e)
    out[inside] = [optimize.brentq(lambda r: evaluate(np.array([r]))[0] - t,
                                   _EPS_LO, r_max, xtol=1e-10) for t in e[inside]]
    return _like(out, eps)


@functools.lru_cache(maxsize=64)
def _static_bracket(scenario: Scenario, method: CapacityMethod) -> tuple[float, ...]:
    """The top rate log2(1 + (a + N)^2) of the static eps bracket, and the
    outage there and at _EPS_LO."""
    r_max = float(_capacity(scenario.los_amplitude + scenario.n_elements, 0.0))
    return r_max, *_static_mixture(scenario, method)(np.array([r_max, _EPS_LO]))


def _static_fixed(links: np.ndarray, snr: np.ndarray, a: float,
                  mode: CapacityMethod) -> np.ndarray:
    """Outage with exactly k >= 1 links on the grid of rates, given as
    snr = 2^R - 1, by link counts k (the last axis)."""
    if mode is CapacityMethod.EXACT_HANKEL:
        if a != 0.0:
            raise ValueError("exact static outage is available for a = 0 only")
        root = np.sqrt(snr)
        grid = np.empty(snr.shape + links.shape)
        for j, k in enumerate(links):
            grid[..., j] = PhasorSumDistribution(int(k)).cdf(np.minimum(root, k))
        return grid
    s = snr[..., None]
    if a == 0.0:
        return -np.expm1(-s / links)
    return 1.0 - marcum_q1(np.sqrt(2.0 * a * a / links), np.sqrt(2.0 * s / links))


def outage_static_fixed(n_avail: int, rate, a: float, mode: CapacityMethod):
    """Outage at each rate with static phases, conditioned on n_avail >= 1
    active links.

    Exact mode evaluates the phasor-sum cdf at sqrt(2^R - 1), all rates in
    one call, and requires a = 0; approximate mode uses the exponential
    (NLOS) or Marcum-Q (LOS) tail valid for large link counts.
    """
    links = np.array([whole_number(n_avail, 1, "n_avail")])
    snr = _snr(_nonnegatives(rate, "rate"))
    return _like(_static_fixed(links, snr, _amplitude(a, "a"), CapacityMethod(mode))[..., 0],
                 rate)


def outage_static(
    scenario: Scenario, rate, mode: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage at each rate with static phases, averaged over the link-count
    law: sum_k Pr(K = k) F_k(R).

    One pass builds the float grid of F_k at every rate for every link
    count k of positive weight, a rates x (n+1) temporary at most: one
    broadcast without LOS, one Marcum-Q call over the whole grid with LOS,
    and one phasor-sum cdf call per link count in exact mode. The zero-link
    column is the deterministic LOS-only channel, an outage exactly when
    the rate exceeds log2(1+a^2) (strict). Each rate's row is weighted and
    summed on its own (pairwise), so a rate gives the same bits alone or
    in any array. A row whose every term is 1 is exactly 1.
    """
    _require(scenario, Scheme.STATIC)
    evaluate = _static_mixture(scenario, CapacityMethod(mode))
    return _like(evaluate(_nonnegatives(rate, "rate")), rate)


@functools.lru_cache(maxsize=64)
def _static_mixture(scenario: Scenario, mode: CapacityMethod):
    """outage_static as a function of a checked rate array, with the link
    counts of positive weight, their weights and the LOS-only step
    log2(1 + a^2) taken from the law once."""
    pmf, a = scenario.link_count_distribution().pmf, scenario.los_amplitude
    weighted = np.flatnonzero(pmf)
    links, weights, los_cap = weighted[weighted > 0], pmf[weighted], _capacity(a, 0.0)

    def evaluate(r: np.ndarray) -> np.ndarray:
        fixed = _static_fixed(links, _snr(r), a, mode)
        if pmf[0] > 0.0:
            fixed = np.concatenate(((r > los_cap)[..., None], fixed), axis=-1)
        total = (fixed * weights).sum(axis=-1)
        return np.where((fixed == 1.0).all(axis=-1), 1.0, np.minimum(1.0, total))
    return evaluate


def outage_perfect(scenario: Scenario, rate):
    """Outage at each rate with perfect phase adjustment: a step mixture at
    the capacities log2(1 + (a + k)^2) of k links aligned with the LOS
    phasor, with the same strict convention as outage_hopping."""
    _require(scenario, Scheme.PERFECT)
    return _step_outage(scenario, rate)


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
        if np.isnan(x).any() or np.any(np.diff(x) < 0):
            raise ValueError("x must be sorted ascending, with no NaN")
        if not (np.all(np.diff(f) >= 0) and f[0] >= 0 and f[-1] <= 1 + 1e-12):
            raise ValueError("f must be a nondecreasing cdf table in [0, 1], no NaN")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", np.minimum(f, 1.0))

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        s = np.sort(np.asarray(samples, dtype=float))
        return cls(s, np.arange(1, s.size + 1) / s.size)

    def __call__(self, x):
        """F at each x, a float or an array like x; NaN raises ValueError."""
        v = np.atleast_1d(np.asarray(x, dtype=float))
        if np.isnan(v).any():
            raise ValueError(f"x must be a number, got {_first_bad(x, ~np.isnan(v))}")
        idx = np.searchsorted(self.x, v, side="right")
        return _like(np.where(idx == 0, 0.0, self.f[idx - 1]), x)


def outage_general_fading(rate, sigma2_cdf: EmpiricalCdf):
    """Outage under phase hopping at each rate for a general fading law of
    the summed link power sigma^2: the cdf at 1 / (2 E^{-1}(R ln 2)), where
    E(x) = -e^x Ei(-x), at 0 for R = 0 and at inf past R ~ 1073."""
    y = _nonnegatives(rate, "rate") * _LN2
    threshold = np.zeros_like(y)
    with np.errstate(over="ignore"):
        threshold[y > 0] = 1.0 / (2.0 * cal_e_inverse(y[y > 0]))
    return _like(sigma2_cdf(threshold), rate)


def min_outage(scenario: Scenario) -> float:
    """Smallest attainable hopping outage: probability that no link exists."""
    return float(np.prod(1.0 - scenario.prob_vector))
