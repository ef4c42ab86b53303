"""Elastic (everywhere-concave) utilities.

Traditional data applications — mail, file transfer — tolerate delay
and have diminishing returns to bandwidth everywhere, so their ``pi`` is
strictly concave and the fixed-load total ``V(k)`` increases forever:
admission control only hurts, and best-effort-only is ideal (Section 2).
The paper's footnote 9 uses ``pi(b) = 1 - e**-b`` when discussing how
even elastic applications can benefit from reservations under retries.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utility.base import UtilityFunction


class ExponentialElasticUtility(UtilityFunction):
    """``pi(b) = 1 - exp(-rate * b)`` — strictly concave everywhere."""

    name = "elastic-exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        """Decay rate; higher means satiation at lower bandwidth."""
        return self._rate

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return 1.0 - math.exp(-self._rate * b)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.exp(np.multiply(b, -self._rate, out=out), out=out)
        return np.subtract(1.0, out, out=out)

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return self._rate * math.exp(-self._rate * b)

    def __repr__(self) -> str:
        return f"ExponentialElasticUtility(rate={self._rate!r})"


class HyperbolicElasticUtility(UtilityFunction):
    """``pi(b) = b / (half + b)`` — concave with an algebraic approach to 1.

    Reaches one half of full utility at ``b = half``.  Its slow
    (``1 - pi ~ half/b``) tail makes it a useful stress case for the
    welfare model: utility keeps accruing far past nominal satiation.
    """

    name = "elastic-hyperbolic"

    def __init__(self, half: float = 1.0):
        if half <= 0.0:
            raise ValueError(f"half-saturation point must be > 0, got {half!r}")
        self._half = float(half)

    @property
    def half(self) -> float:
        """Bandwidth at which utility reaches 1/2."""
        return self._half

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return b / (self._half + b)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.divide(b, np.add(b, self._half, out=out), out=out)

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return self._half / (self._half + b) ** 2

    def __repr__(self) -> str:
        return f"HyperbolicElasticUtility(half={self._half!r})"
