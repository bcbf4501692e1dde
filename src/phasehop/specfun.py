"""Special functions and discrete distributions of the link count.

Everything here is a pure function of its arguments; the heavy lifting is
delegated to scipy where a well-tested routine exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special, stats

__all__ = [
    "cal_e",
    "cal_e_inverse",
    "marcum_q1",
    "DiscreteDistribution",
    "binomial",
    "poisson_binomial",
    "quantile",
]


def _e1_scaled_cf(x: float, tol: float = 1e-16, maxiter: int = 1000) -> float:
    """exp(x)*E1(x) by the Lentz continued fraction, stable for large x."""
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for k in range(1, maxiter):
        a = -k * k
        b = x + 2 * k + 1
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < tol:
            break
    return 1.0 / f


def cal_e(x: float) -> float:
    """E(x) = -exp(x)*Ei(-x) = exp(x)*E1(x); strictly decreasing on (0, inf)."""
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if x <= 1.0:
        return float(np.exp(x) * special.exp1(x))
    return _e1_scaled_cf(x)


def cal_e_inverse(y: float) -> float:
    """Inverse of cal_e: the unique x > 0 with cal_e(x) = y."""
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    # bracket by doubling/halving around x = 1 (cal_e is decreasing)
    lo, hi = 1.0, 1.0
    while cal_e(lo) <= y:
        lo /= 2.0
        if lo < 1e-300:
            raise ValueError(f"y={y} out of representable range")
    while cal_e(hi) >= y:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"y={y} out of representable range")
    return float(optimize.brentq(lambda x: cal_e(x) - y, lo, hi, xtol=1e-14))


def marcum_q1(a, b):
    """Marcum Q1(a, b) = Pr(X > b^2), X ~ noncentral chi^2(2 dof, nc=a^2).

    a and b broadcast; a float for scalar arguments, else an array."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a < 0).any() or (b < 0).any():
        raise ValueError(f"arguments must be nonnegative, got a={a}, b={b}")
    b2 = b * b
    q = np.where(a == 0, np.exp(-0.5 * b2), stats.ncx2.sf(b2, 2, a * a).clip(0.0, 1.0))
    q = np.where(b == 0, 1.0, q)
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class DiscreteDistribution:
    """Distribution of a nonnegative integer on {0, ..., support_max}.

    pmf and cdf are read-only copies, so a shared law cannot be altered."""

    pmf: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-d vector")
        if np.any(pmf < -1e-15) or np.any(pmf > 1 + 1e-12):
            raise ValueError("pmf entries must lie in [0, 1]")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1, got {pmf.sum()!r}")
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        for table in (pmf, cdf):
            table.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "cdf", cdf)

    @property
    def support_max(self) -> int:
        return self.pmf.size - 1


def binomial(n: int, p: float) -> DiscreteDistribution:
    """Binomial(n, p) link-count distribution.

    Small n uses the exact convolution recurrence (keeps corner masses such
    as (1-p)^n bit-exact); large n switches to the log-gamma pmf, which is
    underflow-safe up to n = 1e4.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n <= 1024:
        return poisson_binomial(np.full(n, p))
    pmf = stats.binom.pmf(np.arange(n + 1), n, p)
    return DiscreteDistribution(pmf)


def poisson_binomial(p_vec) -> DiscreteDistribution:
    """Generalized binomial: number of successes of independent Bernoulli(p_i).

    Iterative convolution over the elements, O(N^2); reduces to binomial
    when all probabilities are equal.
    """
    p = np.asarray(p_vec, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("all probabilities must lie in [0, 1]")
    pmf = np.array([1.0])
    for pi in p:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] += pmf * (1.0 - pi)
        nxt[1:] += pmf * pi
        pmf = nxt
    return DiscreteDistribution(pmf)


def quantile(dist: DiscreteDistribution, eps):
    """Smallest k with cdf[k] > eps (strict, matching the outage convention),
    for each eps: an int for a scalar eps, else an integer array."""
    e = np.asarray(eps, dtype=float)
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    k = np.searchsorted(dist.cdf, e, side="right")
    return int(k) if e.ndim == 0 else k
