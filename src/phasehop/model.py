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
    encodes the NLOS case. scheme is a Scheme or its value, such as
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
        object.__setattr__(self, "los_amplitude",
                           _amplitude(self.los_amplitude, "los_amplitude"))
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
    a*exp(j*phi_0).

    The precision follows theta: float32 theta takes phi to float32 and
    does the angles and their cos/sin in float32 (numpy's SIMD path),
    summing into float64; any other theta is taken as float64.

    The layout follows theta too: numpy keeps a column-major theta (the
    transpose of a link-major k x m draw, as the Monte-Carlo fast loop
    passes it) column-major through the angles and cos/sin, so the sums
    over the links run along contiguous memory. The result has the same
    bits for either layout.
    """
    theta = np.asarray(theta)
    if theta.dtype != np.float32:
        theta = theta.astype(float, copy=False)
    phi = np.asarray(phi, dtype=theta.dtype)
    if phi.ndim != 1 or theta.ndim != 2 or theta.shape[1] != phi.size:
        raise ValueError(
            f"theta of shape {theta.shape} does not match {phi.size} link phases"
        )
    return _angle_capacity(phi[None, :] + theta, los)


def _angle_capacity(ang, los, cos=None):
    """log2(1+|h|^2) in bits for each row of the m x k angle array ang, with
    h = los + sum_i exp(j*ang[:, i]): the channel formula of symbol_capacity
    and the Monte-Carlo fast loop. It overwrites ang with its sines, and
    writes the cosines into cos, a work array of ang's shape and dtype, if
    one is given. The sums over the links are float64 for any dtype."""
    re = np.cos(ang, out=cos).sum(axis=1, dtype=float)
    im = np.sin(ang, out=ang).sum(axis=1, dtype=float)
    return _capacity(los.real + re, los.imag + im)


def _characteristic(t, links, a=0.0, gaussian=False):
    """Characteristic function E[J0(t|h|)] of the channel h: the LOS phasor
    of amplitude a plus `links` unit phasors of uniform phase, J0(a t)
    J0(t)^links, or with the links' sum taken as CN(0, links),
    J0(a t) e^{-links t^2/4}. t broadcasts against links; links keeps the
    caller's type, since numpy takes a Python int 2 as x*x, 1 ulp off the
    general power of an int64 array."""
    # the power unnamed, so numpy reuses its buffer for the product
    return special.j0(a * t) * (np.exp(-0.25 * links * (t * t)) if gaussian
                                else special.j0(t) ** links)


def _capacity(re, im):
    """log2(1+|h|^2) in bits for the channel h = re + j*im, the one place
    it is written: a LOS-only or phase-aligned channel passes im = 0."""
    return np.log2(1.0 + re * re + im * im)
