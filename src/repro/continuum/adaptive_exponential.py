"""Closed forms: adaptive (ramp) applications, exponential load.

The continuum adaptive utility is the ramp with dead zone ``a``
(:class:`~repro.utility.piecewise.PiecewiseLinearUtility`).  Since
``k_max(C) = C`` for every ``a > 0``, the reservation side coincides
with the rigid case; only best-effort changes.  Splitting the census
at the flow counts where the ramp kinks (``k = C`` and ``k = C/a``):

    V_B(C) = (1/beta)(1 - e^{-bC}(1+bC))
           + [ C (e^{-bC} - e^{-bC/a})
               - (a/b)(e^{-bC}(1+bC) - e^{-bC/a}(1+bC/a)) ] / (1-a)

with ``b = beta``.  The key asymptotic (paper Section 3.3): the
bandwidth gap no longer grows — ``Delta(C) -> -ln(1-a)/beta``, a
constant.  Adaptivity changes the exponential-load story qualitatively.
"""

from __future__ import annotations

import math

import numpy as np

from repro.continuum.rigid_exponential import RigidExponentialContinuum
from repro.errors import ModelError
from repro.models.variable_load import solve_bandwidth_gaps
from repro.numerics.solvers import find_root, invert_monotone


class AdaptiveExponentialContinuum:
    """Closed forms for the ramp(a) x exponential-load case."""

    def __init__(self, a: float, beta: float = 1.0):
        if not 0.0 <= a < 1.0:
            raise ValueError(f"adaptivity parameter a must be in [0, 1), got {a!r}")
        if beta <= 0.0:
            raise ValueError(f"rate beta must be > 0, got {beta!r}")
        self._a = float(a)
        self._beta = float(beta)
        self._rigid = RigidExponentialContinuum(beta)

    @property
    def a(self) -> float:
        """Ramp dead-zone width (0 = maximally adaptive)."""
        return self._a

    @property
    def beta(self) -> float:
        """Census decay rate."""
        return self._beta

    @property
    def mean_load(self) -> float:
        """``k_bar = 1/beta``."""
        return 1.0 / self._beta

    # ------------------------- closed forms -------------------------
    # Each quantity has one formula, over a capacity grid; the
    # per-point methods below are one-element views of it.

    def _exp_cap(self, capacity: float) -> float:
        """``e^{-beta C / a}`` with the ``a = 0`` limit handled."""
        if self._a == 0.0:
            return 0.0
        return math.exp(-self._beta * capacity / self._a)

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B(C) = beta V_B(C)`` (closed-form ``V_B``, verified
        against quadrature in tests)."""
        caps = self._rigid._grid(capacities)
        a, beta = self._a, self._beta
        bc = beta * caps
        e1 = np.exp(-bc)
        rigid_part = (1.0 - e1 * (1.0 + bc)) / beta
        if a == 0.0:
            ramp_part = caps * e1
        else:
            bca = bc / a
            e2 = np.exp(-bca)
            ramp_part = (
                caps * (e1 - e2)
                - (a / beta) * (e1 * (1.0 + bc) - e2 * (1.0 + bca))
            ) / (1.0 - a)
        totals = np.where(caps > 0.0, rigid_part + ramp_part, 0.0)
        return totals * beta

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R`` — the rigid closed form (``k_max(C) = C``)."""
        return self._rigid.reservation_batch(capacities)

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta(C) = R(C) - B(C)``, clipped at zero."""
        return np.maximum(
            0.0,
            self.reservation_batch(capacities)
            - self.best_effort_batch(capacities),
        )

    def bandwidth_gap_batch(
        self, capacities, *, gap_floor: float = 1e-13
    ) -> np.ndarray:
        """``Delta(C)`` solving ``B(C + Delta) = R(C)``, one vectorised
        inversion of the closed-form ``B`` for the whole grid."""
        caps = self._rigid._grid(capacities)
        return solve_bandwidth_gaps(
            self.best_effort_batch,
            caps,
            self.reservation_batch(caps),
            self.best_effort_batch(caps),
            gap_floor=gap_floor,
            upper_limit=1e12,
            label="adaptive-exponential Delta",
        )

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C)``: a one-element :meth:`best_effort_batch`."""
        return float(self.best_effort_batch([capacity])[0])

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C)``: a one-element :meth:`reservation_batch`."""
        return float(self.reservation_batch([capacity])[0])

    def total_best_effort(self, capacity: float) -> float:
        """``V_B(C) = B(C) / beta``."""
        return self.best_effort(capacity) / self._beta

    def total_reservation(self, capacity: float) -> float:
        """``V_R(C) = R(C) / beta``."""
        return self.reservation(capacity) / self._beta

    def performance_gap(self, capacity: float) -> float:
        """``delta(C)``: a one-element :meth:`performance_gap_batch`."""
        return float(self.performance_gap_batch([capacity])[0])

    def bandwidth_gap(self, capacity: float, *, gap_floor: float = 1e-13) -> float:
        """``Delta(C)``: a one-element :meth:`bandwidth_gap_batch`."""
        return float(self.bandwidth_gap_batch([capacity], gap_floor=gap_floor)[0])

    def bandwidth_gap_limit(self) -> float:
        """``lim_{C->inf} Delta(C) = -ln(1-a)/beta`` (paper Section 3.3)."""
        if self._a == 0.0:
            return 0.0
        return -math.log(1.0 - self._a) / self._beta

    # --------------------------- welfare ----------------------------

    def marginal_best_effort(self, capacity: float) -> float:
        """``V_B'(C) = (e^{-beta C} - e^{-beta C/a}) / (1-a)``."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        e1 = math.exp(-self._beta * capacity)
        if self._a == 0.0:
            # pi' = 1 on (0, 1), so V_B'(C) = P(K > C) = e^{-beta C}
            return e1
        return (e1 - self._exp_cap(capacity)) / (1.0 - self._a)

    def _marginal_peak_capacity(self) -> float:
        """Where ``V_B'`` peaks: ``C* = -a ln a / (beta (1-a))``."""
        a = self._a
        if a == 0.0:
            return 0.0
        return -a * math.log(a) / (self._beta * (1.0 - a))

    def optimal_capacity_best_effort(self, price: float) -> float:
        """Largest root of ``V_B'(C) = p``."""
        if price <= 0.0:
            raise ValueError(f"price must be > 0, got {price!r}")
        peak_c = self._marginal_peak_capacity()
        if self.marginal_best_effort(peak_c) <= price:
            raise ModelError(
                f"price {price} exceeds the peak marginal utility; the "
                "welfare optimum is zero capacity"
            )
        return find_root(
            lambda c: self.marginal_best_effort(c) - price,
            peak_c,
            peak_c + 2.0 / self._beta,
            expand=True,
            upper_limit=1e12,
            label=f"adaptive-exponential C_B(p={price})",
        )

    def optimal_capacity_reservation(self, price: float) -> float:
        """Same as rigid: ``C_R(p) = -ln(p)/beta``."""
        return self._rigid.optimal_capacity_reservation(price)

    def welfare_best_effort(self, price: float) -> float:
        """``W_B(p) = V_B(C_B(p)) - p C_B(p)``."""
        c = self.optimal_capacity_best_effort(price)
        return self.total_best_effort(c) - price * c

    def welfare_reservation(self, price: float) -> float:
        """Same as rigid: ``W_R(p) = (1/beta)(1 - p + p ln p)``."""
        return self._rigid.welfare_reservation(price)

    def equalizing_ratio(self, price: float) -> float:
        """``gamma(p)`` with ``W_R(gamma p) = W_B(p)``, solved exactly."""
        target = self.welfare_best_effort(price)
        p_hat = invert_monotone(
            self.welfare_reservation,
            target,
            price,
            2.0 * price,
            increasing=False,
            upper_limit=1.0,
            label=f"adaptive-exponential gamma(p={price})",
        )
        return p_hat / price
