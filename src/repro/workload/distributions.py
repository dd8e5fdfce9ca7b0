"""Sampling distributions used by the SURGE workload model.

Thin, explicitly-parameterised wrappers over :mod:`numpy.random` with the
two properties the workload model needs: every distribution knows its
analytic (or truncated) mean, and heavy-tailed distributions are bounded
so a single pathological sample cannot dominate a short measurement
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Distribution", "BoundedPareto", "Geometric"]


class Distribution:
    """Interface: ``sample(rng)`` plus an analytic ``mean()``."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value using ``rng``."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic (or truncated) mean."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoundedPareto(Distribution):
    """Pareto(k, alpha) truncated at ``upper`` via rejection-free clamping.

    Sampled with the inverse CDF ``k * U^(-1/alpha)`` then clamped, which
    keeps the body exact and only compresses the extreme tail.
    """

    k: float
    alpha: float
    upper: float = math.inf

    def __post_init__(self) -> None:
        if self.k <= 0 or self.alpha <= 0:
            raise ValueError("k and alpha must be positive")
        if self.upper <= self.k:
            raise ValueError("upper bound must exceed k")

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_uniform(rng.random())

    def from_uniform(self, u: float) -> float:
        """The sample one uniform draw ``u`` in [0, 1) maps to."""
        value = self.k * u ** (-1.0 / self.alpha)
        return min(value, self.upper)

    def tail_probability(self, x: float) -> float:
        """P(X > x) for the *unclamped* Pareto (x >= k)."""
        if x < self.k:
            return 1.0
        return (self.k / x) ** self.alpha

    def mean(self) -> float:
        if math.isinf(self.upper):
            if self.alpha <= 1.0:
                return math.inf
            return self.alpha * self.k / (self.alpha - 1.0)
        a, k, u = self.alpha, self.k, self.upper
        if a == 1.0:
            body = k * math.log(u / k)
        else:
            body = (a * k / (a - 1.0)) * (1.0 - (k / u) ** (a - 1.0))
        # Clamped mass at the upper bound.
        return body + u * (k / u) ** a


@dataclass(frozen=True)
class Geometric(Distribution):
    """Geometric on {1, 2, ...} with the given mean (>= 1)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value < 1.0:
            raise ValueError("geometric mean must be >= 1")

    def sample(self, rng: np.random.Generator) -> float:
        p = 1.0 / self.mean_value
        return float(rng.geometric(p))

    def mean(self) -> float:
        return self.mean_value
