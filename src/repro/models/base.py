"""The comparison contract shared by every capacity model.

The paper defines its two headline quantities once, for the basic
model of Section 3.1, and reuses them unchanged for the continuum
(Section 3.2), sampling (Section 5.1) and retrying (Section 5.2)
models:

- the *performance gap* ``delta(C) = R(C) - B(C)``;
- the *bandwidth gap* ``Delta(C)``, defined implicitly by
  ``B(C + Delta(C)) = R(C)`` — how much extra capacity buys
  best-effort the reservation architecture's utility.

:class:`CapacityModel` derives both, the scalar entry points, the
unnormalised totals and the figure sweep from three things a model
supplies: ``best_effort_batch`` and ``reservation_batch`` (the
normalised ``B`` and ``R`` over a capacity grid) and ``mean_load``.
A model overrides a derived quantity only where the paper gives it a
closed form.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.models.fixed_load import validated_capacities
from repro.numerics.batch import invert_monotone_batch


def solve_bandwidth_gaps(
    best_effort_batch,
    capacities: np.ndarray,
    targets: np.ndarray,
    base_values: np.ndarray,
    *,
    gap_floor: float,
    upper_limit: float,
    label: str,
) -> np.ndarray:
    """Solve ``B(C + Delta) = target`` over a grid in one vector call.

    The one bandwidth-gap solver: every model supplies its own
    vectorised best-effort curve and its own targets.  Elements whose
    gap is below ``gap_floor`` return exactly 0.0.  An element the
    solver flags raises the scalar error naming its capacity
    (:meth:`~repro.numerics.batch.BatchRootResult.checked_root`).
    """
    caps = np.asarray(capacities, dtype=float).ravel()
    gaps = np.zeros(caps.size)
    idx = np.flatnonzero((targets - base_values) > gap_floor)
    if idx.size == 0:
        return gaps
    sub = caps[idx]
    result = invert_monotone_batch(
        best_effort_batch,
        targets[idx],
        sub,
        sub + np.maximum(1.0, sub),
        increasing=True,
        upper_limit=upper_limit,
        label=label,
    )
    for j in np.flatnonzero(~result.converged):
        result.checked_root(j, f"at C={sub[j]}")
    gaps[idx] = np.maximum(0.0, result.roots - sub)
    return gaps


class CapacityModel(abc.ABC):
    """``B``, ``R``, ``delta`` and ``Delta`` over a capacity grid.

    A subclass supplies :meth:`best_effort_batch`,
    :meth:`reservation_batch` and :attr:`mean_load`; every kernel
    refuses negative and non-finite capacities
    (:func:`~repro.models.fixed_load.validated_capacities`).  The base
    derives the rest: :meth:`performance_gap_batch`,
    :meth:`bandwidth_gap_batch`, the unnormalised totals, the
    one-element scalar views and :meth:`sweep`.
    """

    #: Normalised performance gaps at or below this give ``Delta = 0``
    #: exactly: they are below the numerical noise floor of the
    #: truncated sums.
    GAP_FLOOR: ClassVar[float] = 1e-12

    #: Least ceiling on ``C + Delta`` for the gap solver's brackets.
    GAP_LIMIT: ClassVar[float] = 1e9

    @property
    @abc.abstractmethod
    def mean_load(self) -> float:
        """``k_bar``: per-flow utilities times this are total utilities."""

    @property
    def gap_limit(self) -> float:
        """Largest capacity the gap and planning solvers' brackets reach.

        :attr:`GAP_LIMIT`, or 64 mean loads once that is larger: a
        fixed ceiling sits below the root ``B(C + Delta) = R(C)`` of a
        census whose mean alone is past it (Poisson ``k_bar = 1e9``).
        """
        return max(self.GAP_LIMIT, 64.0 * self.mean_load)

    @abc.abstractmethod
    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised best-effort utility ``B`` over a capacity grid."""

    @abc.abstractmethod
    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised reservation utility ``R`` over a capacity grid."""

    # ------------------------------------------------------------------
    # derived grid quantities
    # ------------------------------------------------------------------

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta = R - B`` over a capacity grid, clipped at zero.

        Strictly positive in all the paper's cases; clipping only
        absorbs truncation noise when both sides are ~1.
        """
        caps = validated_capacities(capacities)
        return np.maximum(
            0.0, self.reservation_batch(caps) - self.best_effort_batch(caps)
        )

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta`` solving ``B(C + Delta) = R(C)``: one vectorised inversion.

        Gaps whose normalised performance difference is at most
        :attr:`GAP_FLOOR` return exactly 0.0 — they are beneath the
        noise floor of the numerics (and the paper describes them as
        vanishing superexponentially in those regimes).
        """
        caps = validated_capacities(capacities)
        return solve_bandwidth_gaps(
            self._gap_probes,
            caps,
            self.reservation_batch(caps),
            self.best_effort_batch(caps),
            gap_floor=self.GAP_FLOOR,
            upper_limit=self.gap_limit,
            label=f"{type(self).__name__} bandwidth gap",
        )

    def _gap_probes(self, capacities) -> np.ndarray:
        """``B`` at the bandwidth-gap solver's probe capacities."""
        return self.best_effort_batch(capacities)

    def total_best_effort_batch(self, capacities) -> np.ndarray:
        """Unnormalised ``V_B = k_bar B`` over a capacity grid."""
        return self.mean_load * self.best_effort_batch(capacities)

    def total_reservation_batch(self, capacities) -> np.ndarray:
        """Unnormalised ``V_R = k_bar R`` over a capacity grid."""
        return self.mean_load * self.reservation_batch(capacities)

    def sweep(self, capacities) -> dict:
        """The figure-panel series over a capacity grid.

        A dict of numpy arrays keyed ``capacity``, ``best_effort``,
        ``reservation``, ``performance_gap`` and ``bandwidth_gap`` —
        one point per requested capacity, each series one grid call.
        """
        caps = validated_capacities(list(capacities))
        return {
            "capacity": caps,
            "best_effort": self.best_effort_batch(caps),
            "reservation": self.reservation_batch(caps),
            "performance_gap": self.performance_gap_batch(caps),
            "bandwidth_gap": self.bandwidth_gap_batch(caps),
        }

    # ------------------------------------------------------------------
    # one-element views
    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C)``: a one-element :meth:`best_effort_batch`."""
        return float(self.best_effort_batch([capacity])[0])

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C)``: a one-element :meth:`reservation_batch`."""
        return float(self.reservation_batch([capacity])[0])

    def performance_gap(self, capacity: float) -> float:
        """``delta(C)``: a one-element :meth:`performance_gap_batch`."""
        return float(self.performance_gap_batch([capacity])[0])

    def bandwidth_gap(self, capacity: float) -> float:
        """``Delta(C)``: a one-element :meth:`bandwidth_gap_batch`."""
        return float(self.bandwidth_gap_batch([capacity])[0])

    def total_best_effort(self, capacity: float) -> float:
        """Unnormalised ``V_B(C)``: a one-element :meth:`total_best_effort_batch`."""
        return float(self.total_best_effort_batch([capacity])[0])

    def total_reservation(self, capacity: float) -> float:
        """Unnormalised ``V_R(C)``: a one-element :meth:`total_reservation_batch`."""
        return float(self.total_reservation_batch([capacity])[0])
