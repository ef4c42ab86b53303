"""Poisson load distribution (paper Section 3.1).

``P(k) = e**-nu * nu**k / k!`` describes a tightly controlled load:
excursions far from the mean are exceedingly rare (it is the census of
an M/M/infinity system — Poisson arrivals, independent departures).
Of the paper's three load models it is the closest to the fixed-load
case, and the one where provisioning most easily erases the difference
between architectures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.loads.base import LoadDistribution


class PoissonLoad(LoadDistribution):
    """Poisson distribution over the number of active flows."""

    name = "poisson"
    support_min = 0

    def __init__(self, nu: float):
        if not 0.0 < nu < math.inf:  # NaN fails too
            raise ValueError(f"Poisson rate nu must be finite and > 0, got {nu!r}")
        self._nu = float(nu)

    @property
    def nu(self) -> float:
        """Poisson rate; equals the mean."""
        return self._nu

    @property
    def mean(self) -> float:
        return self._nu

    def pmf(self, k: int) -> float:
        self.validate_k(k)
        return float(self.pmf_array(k))

    def sf(self, k: int) -> float:
        self.validate_k(k)
        return float(self.sf_array(k))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        """``exp(k ln nu - ln k! - nu)``: ``scipy.stats.poisson``'s formula.

        Zero off the nonnegative integers; a NaN ``k`` stays NaN.
        """
        ks = np.asarray(ks, dtype=float)
        nu = self._nu
        pmf = np.exp(special.xlogy(ks, nu) - special.gammaln(ks + 1.0) - nu)
        return np.where((ks < 0.0) | (np.floor(ks) < ks), 0.0, pmf)

    def sf_array(self, ks: np.ndarray) -> np.ndarray:
        """``pdtrc(floor(k), nu)``: ``scipy.stats.poisson``'s formula.

        One below zero (``pdtrc`` is NaN there); a NaN ``k`` stays NaN.
        """
        ks = np.asarray(ks, dtype=float)
        return np.where(ks < 0.0, 1.0, special.pdtrc(np.floor(ks), self._nu))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        return rng.poisson(self._nu, size=size)

    def mass_window(self, eps: float) -> tuple:
        """Closed-form Chernoff edges, ``O(sqrt(nu))`` apart at any ``nu``.

        ``k P(k) = nu P(k - 1)`` makes each side's first-moment mass
        ``nu`` times a Poisson tail probability.  The Chernoff bound
        ``P(K >= nu x) <= exp(-nu h(x))`` (``P(K <= nu x)`` for
        ``x < 1``), with ``h(x) = x ln x - x + 1``, and the lower bounds
        ``h(1 + d) >= d^2 / (2 (1 + d/3))`` and ``h(1 - d) >= d^2 / 2``
        put each side below ``eps`` at ``t^2 = 2 L (nu + t/3)`` to the
        right and ``t^2 = 2 L nu`` to the left, where ``L = ln(nu/eps)``.
        """
        nu = self._nu
        log_ratio = max(0.0, math.log(nu / eps))
        left = math.sqrt(2.0 * nu * log_ratio)
        right = log_ratio / 3.0 + math.sqrt(log_ratio**2 / 9.0 + 2.0 * nu * log_ratio)
        return max(0, math.floor(nu - left)), math.ceil(nu + right)

    def mean_tail(self, n: int) -> float:
        """``sum_{k>=n} k P(k) = nu * P(K >= n - 1)``.

        Follows from ``k * pmf(k; nu) = nu * pmf(k - 1; nu)``.
        """
        if n <= self.support_min:
            return self._nu
        # P(K >= n - 1) = P(K > n - 2) = sf(n - 2)
        return self._nu * float(self.sf_array(n - 2))

    def rescaled(self, new_mean: float) -> "PoissonLoad":
        return PoissonLoad(new_mean)

    def __repr__(self) -> str:
        return f"PoissonLoad(nu={self._nu!r})"
