"""Special functions and discrete distributions of the link count.

Everything here is a pure function of its arguments; the heavy lifting is
delegated to scipy where a well-tested routine exists. E(x) = exp(x)E1(x)
and its inverse take a float or an array, like marcum_q1 and quantile.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "cal_e",
    "cal_e_inverse",
    "marcum_q1",
    "DiscreteDistribution",
    "binomial",
    "poisson_binomial",
    "quantile",
    "is_real",
    "whole_number",
    "whole_numbers",
]

def cal_e(x):
    """E(x) = -exp(x)*Ei(-x) = exp(x)*E1(x) at each x > 0, strictly
    decreasing: a float for a float, else an array of the same shape.

    Past x = 690, where E1 nears the subnormals, it is the asymptotic
    series (1/x) sum_k (-1)^k k! / x^k to 8 terms, within 8!/690^8 < 1e-18."""
    v = np.asarray(x, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError(f"x must be positive, got {_first_bad(x, v > 0.0)}")
    near = np.minimum(v, 690.0)
    series = np.polynomial.polynomial.polyval(
        1.0 / np.maximum(v, 690.0), [0, 1, -1, 2, -6, 24, -120, 720, -5040])
    out = np.where(v <= 690.0, np.exp(near) * special.exp1(near), series)
    return float(out) if out.ndim == 0 else out


def cal_e_inverse(y):
    """Inverse of cal_e: the x > 0 with cal_e(x) = y, at each y > 0; a float
    for a float, else an array of the same shape.

    One bisection of ln x over the positive doubles, [-745, 709.7], with
    64 halvings for every entry at once; it returns the upper end, so a y
    past E(5e-324) ~ 744 (inf included) gives 5e-324."""
    t = np.asarray(y, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"y must be positive, got {_first_bad(y, t > 0.0)}")
    lo, hi = np.full(t.shape, -745.0), np.full(t.shape, 709.7)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = cal_e(np.exp(mid)) > t  # cal_e decreases: the root is above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    x = np.exp(hi)
    return float(x) if x.ndim == 0 else x


def is_real(value) -> bool:
    """Whether value is one real number: a Python or numpy int or float,
    not a bool, a string, None or a container."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_whole(value, least: int) -> bool:
    """Whether value is one whole number >= least, checked in Python
    numbers; an int is whole at any size, past the float range too."""
    return is_real(value) and value >= least and (
        isinstance(value, (int, np.integer)) or float(value).is_integer())


def _first_bad(values, ok, show=str) -> str:
    """values as an error message names them: show(values) for a scalar,
    else show() of the first entry where the mask ok is False, with its
    index, so that a large array still gives a one-line message."""
    if np.ndim(values) == 0:
        return show(values)
    bad = np.argwhere(~np.asarray(ok, dtype=bool))
    if not bad.size:  # every entry passes: the array's dtype is at fault
        return f"an array of dtype {np.asarray(values).dtype}"
    index = tuple(int(i) for i in bad[0])
    entry = np.asarray(values, dtype=object)[index]
    return f"{show(entry)} at index {index[0] if len(index) == 1 else index}"


def whole_number(value, least: int, name: str) -> int:
    """value as an int; ValueError unless it is one whole number >= least
    (not NaN, inf, 2.5, a bool, a string, None or an array). It is checked
    in Python numbers, many times faster than as an array: exact static
    outage checks one per link count and call."""
    if not _is_whole(value, least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def whole_numbers(values, least: int, name: str) -> np.ndarray:
    """values, a number or an array of them, as an int64 array of the same
    shape; ValueError unless every entry is a whole number >= least (not
    NaN, inf, 2.5, a bool, a string or None). An array is checked by its
    dtype alone; a list is checked entry by entry as well, since numpy
    turns [True, 2] into an int array."""
    x = np.asarray(values)
    if not (x.dtype.kind in "iuf" and np.all(
            (x >= least) & (x < np.inf) & (x == np.floor(x))) and (
            isinstance(values, np.ndarray) or is_real(values)
            or all(map(is_real, np.asarray(values, dtype=object).flat)))):
        objects = np.asarray(values, dtype=object)
        ok = np.reshape([_is_whole(v, least) for v in objects.flat], objects.shape)
        raise ValueError(f"{name} must be a whole number >= {least}, "
                         f"got {_first_bad(values, ok, repr)}")
    return x.astype(np.int64)


def _nonnegatives(values, name: str) -> np.ndarray:
    """values as a float array of at least one dimension; NaN or negative
    entries raise ValueError."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if not (x >= 0.0).all():
        raise ValueError(f"{name} must be a number >= 0, "
                         f"got {_first_bad(values, x >= 0.0)}")
    return x


def _amplitude(a, name: str) -> float:
    """a as a float; ValueError unless it is one finite number >= 0."""
    if not (is_real(a) and 0.0 <= a < np.inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {a!r}")
    return float(a)


def _like(result: np.ndarray, values):
    """A float if the input values were a scalar, else the array result."""
    return float(result[0]) if np.ndim(values) == 0 else result


def marcum_q1(a, b):
    """Marcum Q1(a, b) = Pr(X > b^2), X ~ noncentral chi^2(2 dof, nc=a^2).

    a and b broadcast; a float for scalar arguments, else an array. Nuttall's
    identity makes it chndtr(a^2, 2, b^2) + exp(-(a-b)^2/2) i0e(ab), two terms
    >= 0, exactly exp(-b^2/2) at a = 0; ncx2.sf redoes a sum under 1e-20, near
    chndtr's flush to 0. Where b - a > 38.7 it is 0, and chndtr, slowest
    there, gets noncentrality 0. Within 1.2e-13 of 40-digit mpmath for
    Q1 >= 1e-20."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for name, v in (("a", a), ("b", b)):
        if not (v >= 0).all():
            raise ValueError(
                f"arguments must be numbers >= 0, got {name}={_first_bad(v, v >= 0)}")
    with np.errstate(over="ignore", invalid="ignore"):
        a2, b2, far = a * a, b * b, b - a > 38.7  # Q1 <= exp(-(b-a)^2/2) underflows
        q = (special.chndtr(a2, 2, np.where(far, 0.0, b2))
             + np.exp(-0.5 * (a - b) ** 2) * special.i0e(a * b))
    q = np.where(b == 0, 1.0, np.where(far, 0.0, np.minimum(q, 1.0)))
    ok = q >= 1e-20  # False at NaN too: chndtr fails past b^2 ~ 1e11
    if not ok.all() and (redo := ~ok & (a > 0) & ~far).any():
        # the only use of scipy.stats, whose import costs 0.7 s
        from scipy import stats
        q[redo] = stats.ncx2.sf(*(np.broadcast_to(v, q.shape)[redo] for v in (b2, 2, a2)))
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
        cdf[-1] = 1.0  # the cumulative sum can end a few ulps below 1
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
    from scipy import stats
    return DiscreteDistribution(stats.binom.pmf(np.arange(n + 1), n, p))


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
    ok = (e >= 0.0) & (e < 1.0)
    if not ok.all():
        raise ValueError(f"eps must be in [0, 1), got {_first_bad(eps, ok)}")
    k = np.searchsorted(dist.cdf, e, side="right")
    return int(k) if e.ndim == 0 else k
