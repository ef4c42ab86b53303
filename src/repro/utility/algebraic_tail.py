"""Utilities with algebraic (power-law) approach to full satisfaction.

Section 3.3 of the paper notes that how fast ``pi`` approaches 1
matters under algebraic loads: with ``pi(b) = 1 - b**-tau`` above the
threshold, the bandwidth gap ``Delta(C)`` can grow like ``C``,
``C**(tau+3-z)`` or even *decrease*, depending on how ``tau`` compares
with ``z - 2`` and ``z - 3``.  Footnote 8 also mentions the companion
form ``pi(b) = b**r`` below the threshold.
"""

from __future__ import annotations

import numpy as np

from repro.utility.base import UtilityFunction


class AlgebraicTailUtility(UtilityFunction):
    """``pi(b) = 0`` for ``b <= 1``; ``1 - b**-tau`` for ``b > 1``.

    Captures slow, power-law satiation at high bandwidth while ignoring
    the low-bandwidth region (which does not affect the large-C
    asymptotics it exists to study).  The fixed-load optimum is
    ``k_max(C) = C * (tau + 1)**(-1/tau)`` — strictly below ``C``,
    because admitted flows keep gaining utility past one unit each.
    """

    name = "algebraic-tail"

    def __init__(self, tau: float):
        if tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {tau!r}")
        self._tau = float(tau)

    @property
    def tau(self) -> float:
        """Power of the approach to full utility."""
        return self._tau

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        if b <= 1.0:
            return 0.0
        return 1.0 - b ** (-self._tau)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # b <= 1 (and NaN, which fmax drops) clamps to 1 - 1**-tau = 0
        np.fmax(b, 1.0, out=out)
        out **= -self._tau
        return np.subtract(1.0, out, out=out)

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        if b <= 1.0:
            return 0.0
        return self._tau * b ** (-self._tau - 1.0)

    def k_max(self, capacity: float) -> float:
        """Continuum fixed-load optimum of ``k * pi(C/k)``.

        Stationarity ``pi(b) = b pi'(b)`` gives ``1 - b**-tau =
        tau * b**-tau``, i.e. ``b* = (tau + 1)**(1/tau)`` and
        ``k_max(C) = C / b*``.  (The paper states the equivalent
        ``k_max(C) = C * (tau + 1)**(-1/tau)``.)
        """
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return capacity * (self._tau + 1.0) ** (-1.0 / self._tau)

    def __repr__(self) -> str:
        return f"AlgebraicTailUtility(tau={self._tau!r})"


class PowerLowUtility(UtilityFunction):
    """``pi(b) = b**r`` for ``b <= 1``; ``1`` for ``b > 1`` (footnote 8).

    A convex low-bandwidth profile (for ``r > 1``) with hard saturation.
    ``r = inf`` would be rigid; ``r = 1`` is the ``a = 0`` ramp.
    """

    name = "power-low"

    def __init__(self, r: float):
        if r < 1.0:
            raise ValueError(
                f"exponent r must be >= 1 for an inelastic profile, got {r!r}"
            )
        self._r = float(r)

    @property
    def r(self) -> float:
        """Low-bandwidth exponent; larger r means a deader dead zone."""
        return self._r

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        if b >= 1.0:
            return 1.0
        return b**self._r

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # b >= 1 clamps to 1**r = 1
        np.minimum(b, 1.0, out=out)
        out **= self._r
        return out

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        if b >= 1.0:
            return 0.0
        return self._r * b ** (self._r - 1.0)

    def k_max(self, capacity: float) -> float:
        """Fixed-load optimum: exactly one unit per flow for ``r > 1``.

        ``V(k) = k (C/k)**r = C**r k**(1-r)`` decreases in ``k`` once
        shares fall below 1, while admitting more fully-served flows
        adds utility linearly, so the optimum is ``k_max(C) = C``.
        """
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return capacity

    def __repr__(self) -> str:
        return f"PowerLowUtility(r={self._r!r})"
