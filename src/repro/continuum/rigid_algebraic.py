"""Closed forms: rigid applications, algebraic load (Section 3.2/4).

With census density ``P(k) = (z-1) k^{-z}`` on ``k >= 1`` (mean
``k_bar = (z-1)/(z-2)``) and unit-threshold rigid utility:

    B(C) = 1 - C^{2-z}
    R(C) = 1 - C^{2-z} / (z-1)
    delta(C) = C^{2-z} (z-2)/(z-1)
    Delta(C) = C ((z-1)^{1/(z-2)} - 1)      -- linear in C, for all z!

This is the paper's central asymmetry: under heavy-tailed loads the
bandwidth gap grows *linearly* with capacity, and in the ``z -> 2+``
limit ``Delta(C)/C -> e - 1`` — the conjectured worst case.  The
welfare side closes too, with a price-independent equalizing ratio
``gamma = (z-1)^{1/(z-2)}`` that approaches ``e`` as ``z -> 2+``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelError


class RigidAlgebraicContinuum:
    """All Section 3.2/4 closed forms for the rigid x algebraic case."""

    def __init__(self, z: float):
        if z <= 2.0:
            raise ValueError(f"power z must be > 2, got {z!r}")
        self._z = float(z)

    @property
    def z(self) -> float:
        """Census tail power."""
        return self._z

    @property
    def mean_load(self) -> float:
        """``k_bar = (z-1)/(z-2)``."""
        return (self._z - 1.0) / (self._z - 2.0)

    def gap_ratio(self) -> float:
        """``(C + Delta)/C = (z-1)^{1/(z-2)}`` — capacity-independent."""
        z = self._z
        return (z - 1.0) ** (1.0 / (z - 2.0))

    # ------------------------- closed forms -------------------------
    # Each quantity has one formula, over a capacity grid; the
    # per-point methods below are one-element views of it.

    def _grid(self, capacities) -> np.ndarray:
        caps = np.asarray(capacities, dtype=float).ravel()
        if caps.size and float(np.min(caps)) < 1.0:
            raise ModelError(
                f"the algebraic closed forms hold for C >= 1, got "
                f"{float(np.min(caps))!r}"
            )
        return caps

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B(C) = 1 - C^{2-z}`` for ``C >= 1``."""
        return 1.0 - self._grid(capacities) ** (2.0 - self._z)

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R(C) = 1 - C^{2-z}/(z-1)`` for ``C >= 1``."""
        return 1.0 - self._grid(capacities) ** (2.0 - self._z) / (self._z - 1.0)

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta(C) = C^{2-z} (z-2)/(z-1)``."""
        z = self._z
        return self._grid(capacities) ** (2.0 - z) * (z - 2.0) / (z - 1.0)

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta(C) = C ((z-1)^{1/(z-2)} - 1)`` — exactly linear."""
        return self._grid(capacities) * (self.gap_ratio() - 1.0)

    def best_effort(self, capacity: float) -> float:
        """``B(C)``: a one-element :meth:`best_effort_batch`."""
        return float(self.best_effort_batch([capacity])[0])

    def reservation(self, capacity: float) -> float:
        """``R(C)``: a one-element :meth:`reservation_batch`."""
        return float(self.reservation_batch([capacity])[0])

    def total_best_effort(self, capacity: float) -> float:
        """Unnormalised ``V_B(C) = k_bar B(C)``."""
        return self.mean_load * self.best_effort(capacity)

    def total_reservation(self, capacity: float) -> float:
        """Unnormalised ``V_R(C) = k_bar R(C)``."""
        return self.mean_load * self.reservation(capacity)

    def performance_gap(self, capacity: float) -> float:
        """``delta(C)``: a one-element :meth:`performance_gap_batch`."""
        return float(self.performance_gap_batch([capacity])[0])

    def bandwidth_gap(self, capacity: float) -> float:
        """``Delta(C)``: a one-element :meth:`bandwidth_gap_batch`."""
        return float(self.bandwidth_gap_batch([capacity])[0])

    # --------------------------- welfare ----------------------------

    def optimal_capacity_best_effort(self, price: float) -> float:
        """``C_B(p)`` from ``V_B'(C) = (z-1) C^{1-z} = p``."""
        self._check_price(price)
        z = self._z
        return ((z - 1.0) / price) ** (1.0 / (z - 1.0))

    def optimal_capacity_reservation(self, price: float) -> float:
        """``C_R(p) = p^{-1/(z-1)}`` (from ``V_R'(C) = C^{1-z} = p``)."""
        self._check_price(price)
        return price ** (-1.0 / (self._z - 1.0))

    def welfare_best_effort(self, price: float) -> float:
        """``W_B(p) = V_B(C_B) - p C_B``."""
        c = self.optimal_capacity_best_effort(price)
        return self.total_best_effort(c) - price * c

    def welfare_reservation(self, price: float) -> float:
        """``W_R(p) = k_bar (1 - p^{(z-2)/(z-1)})``."""
        self._check_price(price)
        z = self._z
        return self.mean_load * (1.0 - price ** ((z - 2.0) / (z - 1.0)))

    def equalizing_ratio(self, price: float = None) -> float:
        """``gamma(p) = (z-1)^{1/(z-2)}`` — independent of price.

        The ``price`` argument is accepted (and validated when given)
        only for interface symmetry with the other continuum cases.
        """
        if price is not None:
            self._check_price(price)
        return self.gap_ratio()

    # ------------------------- asymptotics --------------------------

    @staticmethod
    def worst_case_gap_ratio() -> float:
        """``lim_{z->2+} (C+Delta)/C = e`` (the paper's conjectured bound)."""
        return math.e

    @staticmethod
    def worst_case_delta_over_c() -> float:
        """``lim_{z->2+} Delta(C)/C = e - 1``."""
        return math.e - 1.0

    # --------------------------- guards -----------------------------

    def _check_price(self, price: float) -> None:
        # C_B >= 1 requires p <= z-1; C_R >= 1 requires p <= 1
        if not 0.0 < price <= 1.0:
            raise ModelError(
                f"price must be in (0, 1] for the rigid-algebraic welfare "
                f"closed forms, got {price!r}"
            )
