"""Heterogeneous flows (Section 5's "other extensions").

The paper reports examining heterogeneous flows — mixtures of sizes
and utilities — and finding the asymptotic results unchanged.  We
realise that extension by composition: a *mixture* utility averages
class utilities at the common equal share, and a *scaled* utility
rebases a class's bandwidth demand, so the existing models run
untouched over heterogeneous populations.

With population fractions ``w_i`` and class utilities ``pi_i``, the
per-flow expected utility at share ``b`` is ``sum_i w_i pi_i(b)``;
since every flow receives the same share in both architectures, the
whole variable-load analysis goes through with this averaged ``pi`` —
which is itself a valid utility function (nondecreasing, 0 at 0,
1 at infinity).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utility.base import UtilityFunction


class ScaledUtility(UtilityFunction):
    """A class needing ``scale`` times the baseline bandwidth.

    ``pi_scaled(b) = pi(b / scale)``: a flow with twice the demand
    reaches the same satisfaction at twice the bandwidth.
    """

    name = "scaled"

    def __init__(self, base: UtilityFunction, scale: float):
        if scale <= 0.0:
            raise ValueError(f"demand scale must be > 0, got {scale!r}")
        self._base = base
        self._scale = float(scale)

    @property
    def base(self) -> UtilityFunction:
        """The unscaled class utility."""
        return self._base

    @property
    def scale(self) -> float:
        """Bandwidth demand multiplier."""
        return self._scale

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return self._base.value(b / self._scale)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._base.values_into(np.divide(b, self._scale, out=b), out)

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return self._base.derivative(b / self._scale) / self._scale

    def breakpoints(self) -> tuple:
        return tuple(self._scale * b for b in self._base.breakpoints())

    def __repr__(self) -> str:
        return f"ScaledUtility({self._base!r}, scale={self._scale!r})"


class MixtureUtility(UtilityFunction):
    """Population-averaged utility over heterogeneous flow classes.

    Parameters
    ----------
    components:
        Sequence of ``(weight, utility)`` pairs; weights must be
        positive and are normalised to sum to one.
    """

    name = "mixture"

    def __init__(self, components: Sequence[Tuple[float, UtilityFunction]]):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _ in components], dtype=float)
        if np.any(weights <= 0.0):
            raise ValueError(f"mixture weights must be > 0, got {list(weights)!r}")
        self._weights = tuple(float(w) for w in weights / weights.sum())
        self._utilities = tuple(u for _, u in components)

    @property
    def weights(self) -> tuple:
        """Normalised population fractions."""
        return self._weights

    @property
    def utilities(self) -> tuple:
        """Per-class utility functions."""
        return self._utilities

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return sum(w * u.value(b) for w, u in zip(self._weights, self._utilities))

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        for w, u in zip(self._weights, self._utilities):
            out += w * u(b)
        return out

    def derivative(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return sum(w * u.derivative(b) for w, u in zip(self._weights, self._utilities))

    def breakpoints(self) -> tuple:
        points = set()
        for u in self._utilities:
            points.update(u.breakpoints())
        return tuple(sorted(points))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({w!r}, {u!r})" for w, u in zip(self._weights, self._utilities)
        )
        return f"MixtureUtility([{parts}])"
