"""Closed forms: adaptive (ramp) applications, algebraic load.

With the Pareto census ``P(k) = (z-1) k^{-z}`` and ramp utility of
dead zone ``a``, both architectures lose utility like ``C^{2-z}``:

    k_bar - V_R(C) = c_R C^{2-z},   c_R = 1/(z-2)
    k_bar - V_B(C) = c_B C^{2-z},
    c_B = (z-1)/(1-a) [ (1-a^{z-2})/(z-2) - (1-a^{z-1})/(z-1) ]
        + (z-1) a^{z-2} / (z-2)

so the bandwidth gap stays *exactly* linear in capacity,

    Delta(C) = C ((c_B/c_R)^{1/(z-2)} - 1),

but with a slope that shrinks with adaptivity: in the ``z -> 2+``
limit the gap ratio tends to ``a^{-a/(1-a)}`` — spanning 1 (``a -> 0``,
fully adaptive) to ``e`` (``a -> 1``, rigid), the paper's statement
that the worst-case constant "can vary from 1 to e depending on the
nature of the adaptive utility function".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.continuum.rigid_algebraic import RigidAlgebraicContinuum, algebraic_capacities
from repro.errors import ModelError
from repro.models.base import CapacityModel


def best_effort_loss_coefficient(z: float, a: float) -> float:
    """``c_B`` with ``k_bar - V_B(C) = c_B C^{2-z}`` (unnormalised).

    Derived by splitting the census at the ramp kinks ``k = C`` and
    ``k = C/a``; verified against quadrature in the test suite.
    Limits: ``a = 0`` collapses to the reservation coefficient
    ``1/(z-2)`` (a fully adaptive best-effort network loses nothing
    relative to reservations), while ``a -> 1`` recovers the rigid
    coefficient ``k_bar = (z-1)/(z-2)``.
    """
    if z <= 2.0:
        raise ValueError(f"power z must be > 2, got {z!r}")
    if not 0.0 <= a < 1.0:
        raise ValueError(f"adaptivity parameter a must be in [0, 1), got {a!r}")
    if a == 0.0:
        return 1.0 / (z - 2.0)
    bracket = (1.0 - a ** (z - 2.0)) / (z - 2.0) - (1.0 - a ** (z - 1.0)) / (z - 1.0)
    return (z - 1.0) / (1.0 - a) * bracket + (z - 1.0) * a ** (z - 2.0) / (z - 2.0)


def gap_ratio(z: float, a: float) -> float:
    """``(C + Delta)/C = (c_B/c_R)^{1/(z-2)}`` for the ramp(a) case."""
    c_b = best_effort_loss_coefficient(z, a)
    c_r = 1.0 / (z - 2.0)
    return (c_b / c_r) ** (1.0 / (z - 2.0))


def gap_ratio_limit(a: float) -> float:
    """``lim_{z->2+} (C+Delta)/C = a^{-a/(1-a)}``.

    Expanding ``c_B/c_R = 1 - (z-2) a ln(a)/(1-a) + O((z-2)^2)`` and
    exponentiating.  Ranges from 1 at ``a = 0`` to ``e`` at ``a -> 1``.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"adaptivity parameter a must be in [0, 1), got {a!r}")
    if a == 0.0:
        return 1.0
    return a ** (-a / (1.0 - a))


class AdaptiveAlgebraicContinuum(CapacityModel):
    """Closed forms for the ramp(a) x Pareto(z) case."""

    def __init__(self, z: float, a: float):
        self._rigid = RigidAlgebraicContinuum(z)  # validates z
        if not 0.0 <= a < 1.0:
            raise ValueError(f"adaptivity parameter a must be in [0, 1), got {a!r}")
        self._z = float(z)
        self._a = float(a)
        self._c_b = best_effort_loss_coefficient(z, a)
        self._c_r = 1.0 / (self._z - 2.0)

    @property
    def z(self) -> float:
        """Census tail power."""
        return self._z

    @property
    def a(self) -> float:
        """Ramp dead-zone width."""
        return self._a

    @property
    def mean_load(self) -> float:
        """``k_bar = (z-1)/(z-2)``."""
        return self._rigid.mean_load

    def gap_ratio(self) -> float:
        """``(C + Delta)/C`` — capacity-independent."""
        return (self._c_b / self._c_r) ** (1.0 / (self._z - 2.0))

    # ------------------------- closed forms -------------------------
    # Each quantity has one formula, over a capacity grid; the
    # per-point views and the totals come from CapacityModel.

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B(C) = V_B(C)/k_bar`` with ``V_B(C) = k_bar - c_B C^{2-z}``
        for ``C >= 1``."""
        caps = algebraic_capacities(capacities)
        kbar = self.mean_load
        return (kbar - self._c_b * caps ** (2.0 - self._z)) / kbar

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R`` — identical to the rigid case."""
        return self._rigid.reservation_batch(capacities)

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta(C) = (c_B - c_R) C^{2-z} / k_bar``."""
        caps = algebraic_capacities(capacities)
        return (self._c_b - self._c_r) * caps ** (2.0 - self._z) / self.mean_load

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta(C) = C (gap_ratio - 1)`` — exactly linear in ``C``."""
        return algebraic_capacities(capacities) * (self.gap_ratio() - 1.0)

    # --------------------------- welfare ----------------------------

    def optimal_capacity_best_effort(self, price: float) -> float:
        """``C_B(p)`` from ``V_B'(C) = (z-2) c_B C^{1-z} = p``."""
        self._check_price(price)
        z = self._z
        return ((z - 2.0) * self._c_b / price) ** (1.0 / (z - 1.0))

    def optimal_capacity_reservation(self, price: float) -> float:
        """Same as rigid: ``C_R(p) = p^{-1/(z-1)}``."""
        return self._rigid.optimal_capacity_reservation(price)

    def welfare_best_effort(self, price: float) -> float:
        """``W_B(p) = V_B(C_B) - p C_B``."""
        c = self.optimal_capacity_best_effort(price)
        return self.total_best_effort(c) - price * c

    def welfare_reservation(self, price: float) -> float:
        """Same as rigid: ``W_R(p) = k_bar (1 - p^{(z-2)/(z-1)})``."""
        return self._rigid.welfare_reservation(price)

    def equalizing_ratio(self, price: Optional[float] = None) -> float:
        """``gamma``: price-independent, from ``W_R(gamma p) = W_B(p)``.

        Writing ``k_bar - W_B(p) = w p^{(z-2)/(z-1)}`` and
        ``k_bar - W_R(p) = k_bar p^{(z-2)/(z-1)}`` gives
        ``gamma = (w / k_bar)^{(z-1)/(z-2)}`` exactly.
        """
        z = self._z
        probe = price if price is not None else 1e-3
        self._check_price(probe)
        shortfall = self.mean_load - self.welfare_best_effort(probe)
        w = shortfall / probe ** ((z - 2.0) / (z - 1.0))
        return (w / self.mean_load) ** ((z - 1.0) / (z - 2.0))

    # --------------------------- guards -----------------------------

    def _check_price(self, price: float) -> None:
        if not 0.0 < price <= 1.0:
            raise ModelError(
                f"price must be in (0, 1] for the adaptive-algebraic welfare "
                f"closed forms, got {price!r}"
            )
