"""Continuum load densities for the analytically tractable model (§3.2).

The continuum model replaces the integer flow count by a density
``P(k)`` on ``(0, inf)``.  Only two families are used by the paper —
exponential and algebraic (Pareto) — because they make the integrals
for ``V_B`` and ``V_R`` closed-form.  Beyond the pdf, the models need
the *partial first moments* below and above a point, so those are
provided exactly.  ``pdf``, ``sf`` and ``mean_tail`` take a scalar or
an array (a scalar in, a float out), so the quadrature engine
evaluates a whole panel batch in one call.
"""

from __future__ import annotations

import abc
import math

import numpy as np


class ContinuumLoad(abc.ABC):
    """A load density over a continuous flow count ``k > 0``."""

    #: Family name, overridden per subclass.
    name: str = "continuum-load"

    #: Left end of the support.
    support_min: float = 0.0

    @abc.abstractmethod
    def pdf(self, k):
        """Density at ``k`` (scalar or array)."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Average flow count."""

    @abc.abstractmethod
    def sf(self, k):
        """Survival ``P(K > k)`` (scalar or array)."""

    @abc.abstractmethod
    def mean_tail(self, x):
        """Upper partial first moment ``int_x^inf k P(k) dk`` (scalar or array)."""

    def cdf(self, k):
        """Cumulative ``P(K <= k)``."""
        return 1.0 - self.sf(k)

    def partial_mean(self, x):
        """Lower partial first moment ``int_0^x k P(k) dk``."""
        return self.mean - self.mean_tail(x)

    def __repr__(self) -> str:  # pragma: no cover - overridden
        return f"{type(self).__name__}(mean={self.mean!r})"


class ExponentialLoad(ContinuumLoad):
    """``P(k) = beta * exp(-beta k)`` on ``k > 0``; mean ``1/beta``."""

    name = "exponential-continuum"
    support_min = 0.0

    def __init__(self, beta: float):
        if not 0.0 < beta < math.inf:  # NaN fails too
            raise ValueError(f"rate beta must be finite and > 0, got {beta!r}")
        self._beta = float(beta)

    @property
    def beta(self) -> float:
        """Exponential rate; the mean is ``1/beta``."""
        return self._beta

    @property
    def mean(self) -> float:
        return 1.0 / self._beta

    def pdf(self, k):
        k = np.asarray(k, dtype=float)
        return np.where(k < 0.0, 0.0, self._beta * self.sf(k))[()]

    def sf(self, k):
        # k <= 0 clamps to exp(-0.0) = 1
        return np.exp(-self._beta * np.maximum(k, 0.0))[()]

    def mean_tail(self, x):
        """``int_x^inf beta k e^{-beta k} dk = e^{-beta x} (x + 1/beta)``."""
        x = np.maximum(x, 0.0)
        return (np.exp(-self._beta * x) * (x + 1.0 / self._beta))[()]


class ParetoLoad(ContinuumLoad):
    """``P(k) = (z-1) k**-z`` on ``k >= 1``; mean ``(z-1)/(z-2)``.

    The continuum counterpart of :class:`~repro.loads.algebraic.AlgebraicLoad`
    with the shift dropped for tractability (the paper does exactly
    this, noting it only perturbs the small-``C`` region).
    """

    name = "algebraic-continuum"
    support_min = 1.0

    def __init__(self, z: float):
        if not 2.0 < z < math.inf:  # NaN fails too
            raise ValueError(
                f"power z must be finite and > 2 so the mean is finite, got {z!r}"
            )
        self._z = float(z)

    @property
    def z(self) -> float:
        """Tail power."""
        return self._z

    @property
    def mean(self) -> float:
        return (self._z - 1.0) / (self._z - 2.0)

    def pdf(self, k):
        k = np.asarray(k, dtype=float)
        return np.where(k < 1.0, 0.0, (self._z - 1.0) * np.maximum(k, 1.0) ** (-self._z))[()]

    def sf(self, k):
        # k <= 1 clamps to 1**(1 - z) = 1
        return (np.maximum(k, 1.0) ** (1.0 - self._z))[()]

    def mean_tail(self, x):
        """``int_x^inf (z-1) k^{1-z} dk = (z-1)/(z-2) * x^{2-z}`` for x >= 1."""
        return (self.mean * np.maximum(x, 1.0) ** (2.0 - self._z))[()]
