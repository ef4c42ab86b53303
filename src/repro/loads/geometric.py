"""Geometric ("exponential") load distribution (paper Section 3.1).

The paper's exponential load is ``P(k) = (1 - e**-beta) e**-beta*k`` on
``k >= 0`` — a geometric law with ratio ``q = e**-beta`` and mean
``(e**beta - 1)**-1``.  Unlike the Poisson case the mass is not peaked
around the mean: it decays exponentially over the whole range, so large
overloads are rare but far from impossible, and the bandwidth gap
``Delta(C)`` turns out to grow logarithmically forever (rigid apps).
"""

from __future__ import annotations

import math

import numpy as np

from repro.loads.base import LoadDistribution


class GeometricLoad(LoadDistribution):
    """Exponentially decaying flow-count distribution."""

    name = "exponential"
    support_min = 0

    def __init__(self, beta: float):
        if not 0.0 < beta < math.inf:  # NaN fails too
            raise ValueError(f"decay rate beta must be finite and > 0, got {beta!r}")
        self._beta = float(beta)
        self._q = math.exp(-self._beta)

    @classmethod
    def from_mean(cls, mean: float) -> "GeometricLoad":
        """Build from the mean: ``k_bar = q/(1-q)`` so ``q = m/(1+m)``."""
        if not 0.0 < mean < math.inf:
            raise ValueError(f"mean must be finite and > 0, got {mean!r}")
        q = mean / (1.0 + mean)
        return cls(-math.log(q))

    @property
    def beta(self) -> float:
        """Exponential decay rate of the pmf."""
        return self._beta

    @property
    def ratio(self) -> float:
        """Geometric ratio ``q = e**-beta``."""
        return self._q

    @property
    def mean(self) -> float:
        return self._q / (1.0 - self._q)

    def pmf(self, k: int) -> float:
        self.validate_k(k)
        return (1.0 - self._q) * self._q**k

    def sf(self, k: int) -> float:
        self.validate_k(k)
        return self._q ** (k + 1)

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        return (1.0 - self._q) * np.exp(-self._beta * ks)

    def sf_array(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        return self._q ** (ks + 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        # numpy's geometric counts trials-to-success (>= 1); ours is
        # failures-before-success (>= 0)
        return rng.geometric(1.0 - self._q, size=size) - 1

    def continuous_pmf(self, x):
        """``(1-q) e^{-beta x}`` evaluated at real ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        smooth = (1.0 - self._q) * np.exp(-self._beta * np.maximum(x, 0.0))
        return np.where(x < 0.0, 0.0, smooth)[()]

    def mean_tail(self, n: int) -> float:
        """``sum_{k>=n} k (1-q) q^k = q^n (n + q/(1-q) - n q) / (1-q)``.

        From the standard identity
        ``sum_{k>=n} k x^k = x^n (n - (n-1)x) / (1-x)^2``.
        """
        if n <= 0:
            return self.mean
        q = self._q
        return q**n * (n - (n - 1) * q) / (1.0 - q)

    def rescaled(self, new_mean: float) -> "GeometricLoad":
        return GeometricLoad.from_mean(new_mean)

    def __repr__(self) -> str:
        return f"GeometricLoad(beta={self._beta!r})"
