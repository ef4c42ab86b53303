"""Piecewise-linear adaptive utility — the continuum model's Section 3.2.

The continuum calculations are intractable with the smooth adaptive
utility of Eq. 2, so the paper swaps in a ramp parametrised by
``a in (0, 1)``:

    pi(b) = 0              for b <= a
    pi(b) = (b - a)/(1-a)  for a <  b <  1
    pi(b) = 1              for b >= 1

``a -> 1`` recovers the rigid case; decreasing ``a`` means a more
adaptive application.  For every ``a > 0`` the fixed-load optimum is at
one unit per flow, ``k_max(C) = C``, so the reservation-side results
coincide with the rigid ones and only the best-effort side changes.
"""

from __future__ import annotations

import numpy as np

from repro.utility.base import UtilityFunction
from repro.utility.rigid import RigidUtility


class PiecewiseLinearUtility(UtilityFunction):
    """Ramp utility with dead zone ``[0, a]`` and saturation at 1."""

    name = "piecewise-linear"

    def __init__(self, a: float):
        if not 0.0 <= a < 1.0:
            raise ValueError(f"adaptivity parameter a must be in [0, 1), got {a!r}")
        self._a = float(a)

    @property
    def a(self) -> float:
        """Dead-zone width; 0 is maximally adaptive, ->1 approaches rigid."""
        return self._a

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        a = self._a
        if b <= a:
            return 0.0
        if b >= 1.0:
            return 1.0
        return (b - a) / (1.0 - a)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        a = self._a
        np.divide(np.subtract(b, a, out=out), 1.0 - a, out=out)
        return np.clip(out, 0.0, 1.0, out=out)

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        a = self._a
        if a < b < 1.0:
            return 1.0 / (1.0 - a)
        return 0.0

    def breakpoints(self) -> tuple:
        if self._a > 0.0:
            return (self._a, 1.0)
        return (1.0,)

    def as_rigid_limit(self) -> RigidUtility:
        """The ``a -> 1`` limit of this family (unit-threshold rigid)."""
        return RigidUtility(b_hat=1.0)

    def k_max(self, capacity: float) -> float:
        """Fixed-load optimum: one unit per flow, ``k_max(C) = C``.

        For ``a > 0`` the total ``k * pi(C/k)`` strictly decreases once
        shares drop below 1 (each admitted flow loses ``1/(1-a)`` per
        unit of dilution but only ``1`` is gained per extra flow), so
        the continuum optimum is exactly ``C``.  For ``a = 0`` the
        utility is no longer inelastic and no finite optimum exists;
        we still return ``C`` as the conventional comparison point,
        matching the paper's treatment.
        """
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return capacity

    def __repr__(self) -> str:
        return f"PiecewiseLinearUtility(a={self._a!r})"
