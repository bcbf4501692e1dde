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

from .specfun import DiscreteDistribution, binomial, poisson_binomial

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
    encodes the NLOS case. quant_levels is only meaningful for the
    quantized scheme.
    """

    n_elements: int
    link_probs: float | tuple[float, ...]
    los_amplitude: float = 0.0
    scheme: Scheme = Scheme.HOPPING
    quant_levels: int | None = None

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        p = np.atleast_1d(np.asarray(self.link_probs, dtype=float))
        if p.size not in (1, self.n_elements):
            raise ValueError(
                f"link_probs must be scalar or length {self.n_elements}, "
                f"got length {p.size}"
            )
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("connection probabilities must lie in [0, 1]")
        if self.los_amplitude < 0:
            raise ValueError(f"los_amplitude must be >= 0, got {self.los_amplitude}")
        if self.scheme is Scheme.QUANTIZED:
            if self.quant_levels is None or self.quant_levels < 2:
                raise ValueError("quantized scheme requires quant_levels >= 2")
        if isinstance(self.link_probs, (list, np.ndarray)):
            object.__setattr__(self, "link_probs", tuple(float(v) for v in p))

    @property
    def prob_vector(self) -> np.ndarray:
        """Per-element connection probabilities as a length-n array."""
        p = np.atleast_1d(np.asarray(self.link_probs, dtype=float))
        if p.size == 1:
            return np.full(self.n_elements, float(p[0]))
        return p

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
            "p": self.link_probs if np.isscalar(self.link_probs)
            else list(self.link_probs),
            "a": self.los_amplitude,
            "scheme": self.scheme.value,
        }
        if self.quant_levels is not None:
            d["k"] = self.quant_levels
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        p = d["p"]
        return cls(
            n_elements=int(d["n"]),
            link_probs=tuple(p) if isinstance(p, (list, tuple)) else float(p),
            los_amplitude=float(d.get("a", 0.0)),
            scheme=Scheme(d.get("scheme", "hopping")),
            quant_levels=int(d["k"]) if "k" in d else None,
        )


def symbol_capacity(phi, theta, los: complex = 0.0) -> np.ndarray:
    """Capacity log2(1+|h|^2) in bits of each symbol, one per row of theta.

    h = los + sum_i exp(j*(phi_i + theta_i)) is the effective channel over
    the k active links: phi holds their k channel phases, theta an m x k
    array of per-symbol surface phases and los the LOS phasor
    a*exp(j*phi_0).
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi.ndim != 1 or theta.ndim != 2 or theta.shape[1] != phi.size:
        raise ValueError(
            f"theta of shape {theta.shape} does not match {phi.size} link phases"
        )
    ang = phi[None, :] + theta
    re = los.real + np.cos(ang).sum(axis=1)
    im = los.imag + np.sin(ang).sum(axis=1)
    return np.log2(1.0 + re * re + im * im)
