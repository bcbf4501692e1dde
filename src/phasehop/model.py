"""Scenario description and shared channel-model vocabulary.

A Scenario fixes the surface size, the Bernoulli link availabilities, the
LOS amplitude and the phase-adjustment scheme. Capacities are computed in
bits per channel use with |H|^2 playing the role of the post-processing
SNR (transmit power and noise are normalized away).
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import (DiscreteDistribution, _amplitude, binomial, is_real,
                      poisson_binomial, whole_number)

__all__ = ["Scheme", "Scenario", "symbol_capacity"]


class Scheme(enum.Enum):
    """Phase-adjustment strategy at the surface."""

    HOPPING = "hopping"
    QUANTIZED = "quantized"
    STATIC = "static"
    PERFECT = "perfect"


@dataclass(frozen=True)
class Scenario:
    """One link configuration.

    link_probs is either a scalar p applied to all elements or a length-n
    vector of per-element connection probabilities. los_amplitude = 0
    encodes the NLOS case; a + n must stay below about 1.34e154, where the
    largest channel power (a + n)^2 overflows a float. scheme is a Scheme or its value, such as
    "static". quant_levels is required by the quantized scheme and
    rejected by the others.
    """

    n_elements: int
    link_probs: float | tuple[float, ...]
    los_amplitude: float = 0.0
    scheme: Scheme = Scheme.HOPPING
    quant_levels: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_elements",
                           whole_number(self.n_elements, 1, "n_elements"))
        p = self.link_probs
        if isinstance(p, np.ndarray):
            p = p.tolist()  # numbers for 0-d and 1-d, nested lists beyond
        if is_real(p):
            p = float(p)
        elif isinstance(p, (list, tuple)) and all(map(is_real, p)):
            p = tuple(map(float, p))
        else:
            raise ValueError(
                f"link_probs must be a number or a flat list of numbers, got {p!r}")
        probs = np.atleast_1d(p)
        if probs.size not in (1, self.n_elements):
            raise ValueError(
                f"link_probs must be scalar or length {self.n_elements}, "
                f"got length {probs.size}"
            )
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both
            raise ValueError(f"connection probabilities must lie in [0, 1], got {p}")
        object.__setattr__(self, "link_probs", p)
        a = _amplitude(self.los_amplitude, "los_amplitude")
        reach = a + self.n_elements
        if not reach * reach < np.inf:  # a Python float overflows to inf
            raise ValueError(
                "los_amplitude + n_elements must be below about 1.34e154, where the "
                f"largest channel (a + n)^2 overflows a float, got {a!r} + {self.n_elements}")
        object.__setattr__(self, "los_amplitude", a)
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.scheme is Scheme.QUANTIZED:
            if self.quant_levels is None:
                raise ValueError("quantized scheme requires quant_levels >= 2")
            object.__setattr__(self, "quant_levels",
                               whole_number(self.quant_levels, 2, "quant_levels"))
        elif self.quant_levels is not None:
            raise ValueError(f"{self.scheme.value} scheme takes no quant_levels")

    @property
    def prob_vector(self) -> np.ndarray:
        """Per-element connection probabilities as a length-n array."""
        return np.resize(self.link_probs, self.n_elements)  # repeats a scalar

    @property
    def is_homogeneous(self) -> bool:
        p = self.prob_vector
        return bool(np.all(p == p[0]))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # hashed once: every analytic call keys its lru caches on the
        # scenario, and a tuple of N probabilities takes microseconds
        return hash((self.n_elements, self.link_probs, self.los_amplitude, self.scheme,
                     self.quant_levels))

    def __getstate__(self) -> dict:
        # str and enum hashes change with PYTHONHASHSEED: a pickle carries
        # no hash, and each process computes its own
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def link_count_distribution(self) -> DiscreteDistribution:
        """Law of the number of available links, computed once per scenario."""
        return self._link_law

    @functools.cached_property
    def _link_law(self) -> DiscreteDistribution:
        p = self.prob_vector
        if self.is_homogeneous:
            return binomial(self.n_elements, float(p[0]))
        return poisson_binomial(p)

    def to_dict(self) -> dict:
        """JSON-friendly representation, inverse of from_dict."""
        d = {
            "n": self.n_elements,
            "p": self.link_probs if isinstance(self.link_probs, float)
            else list(self.link_probs),
            "a": self.los_amplitude,
            "scheme": self.scheme.value,
        }
        if self.quant_levels is not None:
            d["k"] = self.quant_levels
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Scenario of a to_dict mapping; the constructor checks each value.
        A "k" of None is an error here, not the absence of levels."""
        return cls(
            n_elements=d["n"],
            link_probs=d["p"],
            los_amplitude=d.get("a", 0.0),
            scheme=d.get("scheme", "hopping"),
            quant_levels=whole_number(d["k"], 2, "quant_levels") if "k" in d else None,
        )


def symbol_capacity(phi, theta, los: complex = 0.0) -> np.ndarray:
    """Capacity log2(1+|h|^2) in bits of each symbol, one per row of theta.

    h = los + sum_i exp(j*(phi_i + theta_i)) is the effective channel over
    the k active links: phi holds their k channel phases, theta an m x k
    array of per-symbol surface phases and los the LOS phasor
    a*exp(j*phi_0). phi and theta are taken as float64, whatever their
    dtype.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or theta.ndim != 2 or theta.shape[1] != phi.size:
        raise ValueError(
            f"theta of shape {theta.shape} does not match {phi.size} link phases"
        )
    ang = phi[None, :] + theta
    re = np.cos(ang).sum(axis=1)
    im = np.sin(ang, out=ang).sum(axis=1)
    return _capacity(los.real + re, los.imag + im)


def _characteristic(t, links, a=0.0, gaussian=False):
    """Characteristic function E[J0(t|h|)] of the channel h: the LOS phasor
    of amplitude a plus `links` unit phasors of uniform phase, J0(a t)
    J0(t)^links, or with the links' sum taken as CN(0, links),
    J0(a t) e^{-links t^2/4}. t broadcasts against links; links keeps the
    caller's type, since numpy takes a Python int 2 as x*x, 1 ulp off the
    general power of an int64 array. The exact capacity table and the
    cdf series take only J0 values (links = 1) and the LOS value from
    here, and form each power J0^k with _j0_power."""
    phi = np.exp(-0.25 * links * (t * t)) if gaussian else special.j0(t) ** links
    if a:  # J0(0) is exactly 1: at a = 0 the product would keep every bit
        phi *= special.j0(a * t)  # in place, into phi's fresh buffer
    return phi


def _j0_power(phi1, k):
    """phi1^k for J0 values phi1 and whole k >= 1 (broadcast against each
    other) as exp(k log|phi1|), negated where phi1 < 0 and k is odd: one
    exp per entry and no pow. A phi1 of 0 gives 0, with no log-0 warning."""
    with np.errstate(divide="ignore"):  # log 0 is -inf, and exp(-inf) is 0
        power = np.exp(k * np.log(np.abs(phi1)))
    np.negative(power, out=power, where=(phi1 < 0) & (k % 2 == 1))
    return power


def _capacity(re, im):
    """log2(1+|h|^2) in bits for the channel h = re + j*im, the one place
    it is written: a LOS-only or phase-aligned channel passes im = 0."""
    return np.log2(1.0 + re * re + im * im)
