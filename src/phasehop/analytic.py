"""Closed-form capacities and outage probabilities.

Covers the ergodic capacity under phase hopping (exact via the phasor-sum
law and approximate via its Gaussian counterpart, both one K1-weighted
Gauss-Legendre sum), the outage mixtures over the random link count for
all four schemes, eps-outage capacities, and the general-fading outage
approximation. `outage` serves every scheme; each per-scheme outage
function rejects a scenario of another scheme. A method is a
CapacityMethod or its value, such as "exact"; any other is a ValueError.
Each (scenario, method) has its curve built once, in one bounded lru
cache keyed on the scenario's hash, which it computes once: its outage
and eps-capacity functions, the only code that tells the schemes apart.
Step schemes read their plateaus and the link-count cdf; static outage
is the mixture's evaluator, on which static eps-capacity runs one Brent
search per eps, reading the outages at its bracket's ends, evaluated on
the first eps call.

Capacities take a whole number or an array of link counts, outage and
eps-capacity a float or an array of rates (or eps); each returns a float
or an array of the same shape, by one code path: the input is converted
to a float array once (specfun._floats) and checked with one reduction
(eps with a min and a max). A NaN or negative rate, and an eps outside
[0, 1), raise ValueError; a rate too large for 2^R is an outage.
Outage is Pr(C < R): a rate on a capacity plateau is not an outage.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .hankel import _CHUNK, _cdf_grid
from .model import Scenario, Scheme, _capacity, _characteristic, _j0_power
from .specfun import (_amplitude, _eps_values, _first_bad, _floats, _like, _nonnegatives,
                      cal_e, cal_e_inverse, marcum_q1, whole_number, whole_numbers)

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


_APPROX = CapacityMethod.APPROX_EI  # a global reads faster than an enum member
# the schemes each per-scheme function serves, held so that a call reads
# no enum member
_STEP_HOPPING = (Scheme.HOPPING, Scheme.QUANTIZED)
_STATIC = (Scheme.STATIC,)
_PERFECT = (Scheme.PERFECT,)


def _method(method) -> CapacityMethod:
    """method as a CapacityMethod: a member as it is, which skips the enum
    lookup, anything else by value (ValueError unless it is one)."""
    return method if type(method) is CapacityMethod else CapacityMethod(method)


# Capacity rule: Gauss-Legendre of order _K1_ORDER on panels a quarter
# period of J0(k t) wide up to t = 14.5 pi, where K1(t) < 1e-20, with the
# first panel split geometrically _K1_GRADING times towards t = 0, where
# K1 has its 1/t and t log t terms.
_K1_ORDER = 16
_K1_GRADING = 8
# np.polynomial.legendre.leggauss(_K1_ORDER) as the reprs that give back each
# bit, so that no process solves for them again (230 of the rule's 290 us).
_K1_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_K1_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
# The rule for amplitude a has _K1_ORDER * (_K1_GRADING + 29 ceil(a)) nodes,
# a row of them per link count in the table's blocks; a budget of 100,000
# nodes allows a up to 215 (99,888 nodes).
_K1_MAX_AMPLITUDE = (100_000 // _K1_ORDER - _K1_GRADING) // 29


@functools.lru_cache(maxsize=16)
def _k1_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights (2/ln 2) K1(t) w of the capacity rule, which
    resolves J0(a t) for every a <= k."""
    h = np.pi / (2 * k)
    edges = np.concatenate(([0.0], h * 2.0 ** np.arange(-_K1_GRADING, 0),
                            h * np.arange(1, 29 * k + 1)))
    lo, hi = edges[:-1, None], edges[1:, None]
    t = (0.5 * (hi + lo) + 0.5 * (hi - lo) * _K1_NODES).ravel()
    weights = (0.5 * (hi - lo) * _K1_WEIGHTS).ravel() * special.k1(t) * (2.0 / _LN2)
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
    the approximate method, E(1/k)/ln 2 in closed form at a = 0).

    C(0) is the LOS channel alone, log2(1 + a^2). The rows k >= 1 of
    phi at the rule's nodes are built in blocks of at most _CHUNK
    entries, so memory does not grow with n: the exact row as
    model._j0_power of J0(t), one exp per entry and no pow; the
    approximate row as _characteristic's Gaussian form. Each is
    multiplied by the LOS value J0(a t), taken once."""
    table = np.empty(n + 1)
    table[0] = _capacity(a, 0.0)
    if method is CapacityMethod.APPROX_EI and a == 0.0:
        table[1:] = cal_e(1.0 / np.arange(1, n + 1)) / _LN2
    else:
        if a > _K1_MAX_AMPLITUDE:
            raise ValueError(
                f"a must be at most {_K1_MAX_AMPLITUDE} for the capacity rule, got {a!r}")
        t, w = _k1_rule(max(1, math.ceil(a)))
        exact = method is CapacityMethod.EXACT_HANKEL
        if exact:
            phi1 = _characteristic(t, 1)
        los = _characteristic(t, 0, a, True)  # no links: the same under either law
        step = max(1, _CHUNK // t.size)
        for first in range(1, n + 1, step):
            k = np.arange(first, min(first + step, n + 1))[:, None]
            rows = _j0_power(phi1, k) if exact else _characteristic(t, k, 0.0, True)
            if a:
                rows *= los
            np.subtract(1.0, rows, out=rows)
            rows *= w
            # each row summed on its own (pairwise), so C(k) is the same
            # number in every table and block that holds it
            table[first:first + k.size] = rows.sum(axis=1)
    table.setflags(write=False)
    return table


def _capacities(n_avail, a: float, method: CapacityMethod):
    """C(k, a) for each whole link count k in n_avail, from the table up
    to the largest."""
    k = whole_numbers(n_avail, 0, "n_avail")
    table = _capacity_table(int(k.max(initial=0)), float(a), _method(method))
    return float(table[k]) if k.ndim == 0 else table[k]


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


def _require(scenario: Scenario, schemes: tuple[Scheme, ...]) -> None:
    """ValueError unless the scenario's scheme is one of schemes."""
    if scenario.scheme not in schemes:
        names = " or ".join(s.value for s in schemes)
        raise ValueError(f"scheme must be {names}, got {scenario.scheme.value}")


@functools.lru_cache(maxsize=64)
def _curve(scenario: Scenario, method: CapacityMethod):
    """The scenario's outage and eps-capacity, each a function of a checked
    1-d array of rates or of eps, built once per (scenario, method): the
    one place that tells the schemes apart.

    A step scheme's outage is Pr(caps[K] < R) over the link-count law K,
    where the plateaus caps increase in the link count: the ergodic
    capacities under (quantized) hopping, or log2(1 + (a + k)^2) under
    perfect adjustment, where the k links align with the LOS phasor (the
    channel montecarlo simulates). searchsorted counts the link numbers
    whose capacity lies below each rate, and eps-capacity is the plateau
    at the law's quantile. Static outage is _static_mixture, and static
    eps-capacity one Brent search per eps on [_EPS_LO, log2(1 + (a + N)^2)].
    The outages at the bracket's ends are evaluated on the first eps call
    and kept; Brent, which starts at both ends, reads them instead of
    evaluating them again, and an outage-only call never evaluates them.
    """
    law, n, a = (scenario.link_count_distribution(), scenario.n_elements,
                 scenario.los_amplitude)
    if scenario.scheme is not Scheme.STATIC:
        caps = (_capacity(a + np.arange(n + 1), 0.0) if scenario.scheme is Scheme.PERFECT
                else _capacity_table(n, a, method))
        cdf = law.cdf
        cdf0 = np.concatenate(([0.0], cdf))
        return (lambda x: cdf0[caps.searchsorted(x, "left")],
                lambda e: caps[cdf.searchsorted(e, "right")])  # quantile's rule
    evaluate, known = _static_mixture(law.pmf, a, method), {}
    r_max = float(_capacity(a + n, 0.0))

    def excess(r: float, t: float) -> float:
        value = known.get(r)
        return (evaluate(np.array([r]))[0] if value is None else value) - t

    def eps_capacity_of(e: np.ndarray) -> np.ndarray:
        from scipy import optimize  # only here: kept off the import path
        if not known:  # one update, so another thread sees both ends or none
            # each end alone: beside _EPS_LO, the exact series would run at
            # r_max too, where every F_k is 1 (_cdf_grid skips per chunk)
            top, bottom = (evaluate(np.array([r]))[0] for r in (r_max, _EPS_LO))
            known.update({r_max: top, _EPS_LO: bottom})
        top, bottom = known[r_max], known[_EPS_LO]
        out = np.where(top <= e, r_max, 0.0)
        inside = (top > e) & (bottom <= e)
        out[inside] = [optimize.brentq(excess, _EPS_LO, r_max, (t,), xtol=1e-10)
                       for t in e[inside]]
        return out
    return evaluate, eps_capacity_of


def outage(scenario: Scenario, rate,
           method: CapacityMethod = CapacityMethod.APPROX_EI):
    """Outage probability Pr(C < R) at each rate under the scenario's
    scheme: outage_hopping for hopping and quantized, outage_static for
    static and outage_perfect for perfect, whose plateaus need no method."""
    x, scalar = _nonnegatives(rate, "rate")
    return _like(_curve(scenario, _method(method))[0](x), scalar)


def outage_hopping(
    scenario: Scenario, rate, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage probability under (quantized) phase hopping at each rate.

    Mixture of unit steps at the per-link-count ergodic capacities, weighted
    by the link-count law; strict-inequality convention, so a rate exactly
    equal to a capacity plateau is not an outage. Quantized hopping uses the
    continuous-phase value (large-N asymptotic).
    """
    _require(scenario, _STEP_HOPPING)
    x, scalar = _nonnegatives(rate, "rate")
    return _like(_curve(scenario, _method(method))[0](x), scalar)


def eps_capacity(
    scenario: Scenario, eps, method: CapacityMethod = CapacityMethod.APPROX_EI
):
    """eps-outage capacity at each eps in [0, 1): the largest rate whose
    outage does not exceed eps."""
    e, scalar = _eps_values(eps)
    return _like(_curve(scenario, _method(method))[1](e), scalar)


def _static_fixed(links: np.ndarray, a: float, mode: CapacityMethod):
    """Outage with exactly k >= 1 links as a function of a rate array,
    given as snr = 2^R - 1, with the link counts k on a new last axis.
    The LOS argument of the Marcum-Q tail is taken here, once."""
    if mode is CapacityMethod.EXACT_HANKEL:
        if a != 0.0:
            raise ValueError("exact static outage is available for a = 0 only")
        return lambda snr: _cdf_grid(links, np.sqrt(snr))
    if a == 0.0:
        return lambda snr: -np.expm1(-snr[..., None] / links)
    los = np.sqrt(2.0 * a * a / links)

    def fixed(snr):
        with np.errstate(over="ignore"):  # inf from R = 1023 up: an outage
            tail = np.sqrt(2.0 * snr[..., None] / links)
        return 1.0 - marcum_q1(los, tail)
    return fixed


def outage_static_fixed(n_avail: int, rate, a: float, mode: CapacityMethod):
    """Outage at each rate with static phases, conditioned on n_avail >= 1
    active links.

    Exact mode evaluates Pr(S < sqrt(2^R - 1)) for the phasor sum S, all
    rates in one call, and requires a = 0 (one link is an outage only
    above R = 1); approximate mode uses the exponential (NLOS) or Marcum-Q
    (LOS) tail valid for large link counts.
    """
    links = np.array([whole_number(n_avail, 1, "n_avail")])
    x, scalar = _nonnegatives(rate, "rate")
    fixed = _static_fixed(links, _amplitude(a, "a"), _method(mode))
    return _like(fixed(_snr(x))[..., 0], scalar)


def outage_static(
    scenario: Scenario, rate, mode: CapacityMethod = CapacityMethod.APPROX_EI
):
    """Outage at each rate with static phases, averaged over the link-count
    law: sum_k Pr(K = k) F_k(R).

    One pass builds the float grid of F_k at every rate for every link
    count k of positive weight, a rates x (n+1) temporary at most: one
    broadcast without LOS, one Marcum-Q call over the whole grid with LOS,
    and one phasor-sum series pass over all link counts in exact mode
    (hankel._cdf_grid). The zero-link column is the deterministic LOS-only
    channel, an outage exactly when the rate exceeds log2(1+a^2) (strict).
    Each rate's row is weighted and summed on its own (pairwise), so a
    rate gives the same bits alone or in any array. A row whose every term
    is 1 is exactly 1.
    """
    _require(scenario, _STATIC)
    x, scalar = _nonnegatives(rate, "rate")
    return _like(_curve(scenario, _method(mode))[0](x), scalar)


def _static_mixture(pmf: np.ndarray, a: float, mode: CapacityMethod):
    """outage_static as a function of a checked rate array, for the
    link-count pmf and LOS amplitude a, with the link counts of positive
    weight, their weights and the LOS-only step log2(1 + a^2) taken once."""
    weighted = np.flatnonzero(pmf)
    links, weights, los_cap = weighted[weighted > 0], pmf[weighted], _capacity(a, 0.0)
    fixed_outage = _static_fixed(links, a, mode)

    def evaluate(r: np.ndarray) -> np.ndarray:
        fixed = fixed_outage(_snr(r))
        if pmf[0] > 0.0:
            fixed = np.concatenate(((r > los_cap)[..., None], fixed), axis=-1)
        total = (fixed * weights).sum(axis=-1)
        # every term is in [0, 1], so the row's min is 1 when all of them are
        return np.where(fixed.min(axis=-1) == 1.0, 1.0, np.minimum(1.0, total))
    return evaluate


def outage_perfect(scenario: Scenario, rate):
    """Outage at each rate with perfect phase adjustment: a step mixture at
    the capacities log2(1 + (a + k)^2) of k links aligned with the LOS
    phasor, with the same strict convention as outage_hopping."""
    _require(scenario, _PERFECT)
    x, scalar = _nonnegatives(rate, "rate")
    return _like(_curve(scenario, _APPROX)[0](x), scalar)


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
        v, scalar = _floats(x)
        if np.isnan(v).any():
            raise ValueError(f"x must be a number, got {_first_bad(x, ~np.isnan(v))}")
        idx = self.x.searchsorted(v, side="right")
        return _like(np.where(idx == 0, 0.0, self.f[idx - 1]), scalar)


def outage_general_fading(rate, sigma2_cdf: EmpiricalCdf):
    """Outage under phase hopping at each rate for a general fading law of
    the summed link power sigma^2: the cdf at 1 / (2 E^{-1}(R ln 2)), where
    E(x) = -e^x Ei(-x), at 0 for R = 0 and at inf past R ~ 1073."""
    x, scalar = _nonnegatives(rate, "rate")
    y = x * _LN2
    threshold = np.zeros_like(y)
    with np.errstate(over="ignore"):
        threshold[y > 0] = 1.0 / (2.0 * cal_e_inverse(y[y > 0]))
    return _like(sigma2_cdf(threshold), scalar)


def min_outage(scenario: Scenario) -> float:
    """Smallest attainable outage, its limit as R -> 0+ under every scheme:
    the probability that no link exists when a = 0, and 0 when a > 0, since
    the LOS channel alone then carries every rate below log2(1 + a^2)."""
    return 0.0 if scenario.los_amplitude else float(np.prod(1.0 - scenario.prob_vector))
