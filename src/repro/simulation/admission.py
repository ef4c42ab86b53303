"""Admission-control policies for the simulator.

The reservation-capable architecture is, mechanically, an admission
decision at flow arrival.  A policy sees the current number of
*admitted* flows and the link capacity and answers accept/reject; the
paper's architecture corresponds to :class:`ThresholdAdmission` with
the fixed-load optimum ``k_max(C)`` as the threshold, and
best-effort-only to :class:`AdmitAll`.

:class:`AdmitAll` and a readmitting :class:`ThresholdAdmission` also
fix the admitted count ``M`` as a function of the census ``N``,
``M = min(N, K)``; :meth:`AdmissionPolicy.admitted_cap` states that
rule once, for the ensemble engine and the trace replayer.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional

from repro.models.fixed_load import FixedLoadModel
from repro.utility.base import UtilityFunction


class AdmissionPolicy(abc.ABC):
    """Accept/reject decision at flow-arrival instants."""

    #: Whether a freed reservation slot is handed to a waiting
    #: (previously rejected, still present) flow.  The paper's basic
    #: model never readmits; its retrying extension effectively does.
    readmit_waiting: bool = False

    @abc.abstractmethod
    def admits(self, admitted: int, capacity: float) -> bool:
        """True if a flow arriving now receives a reservation."""

    def threshold(self, capacity: float) -> float:
        """Admission threshold at this capacity (inf = none)."""
        return float("inf")

    def admitted_cap(self, capacity: float) -> Optional[float]:
        """``K`` in the closed form ``M = min(N, K)``, or None if none exists.

        Admit-all and an infinite threshold give ``K = inf``, a
        readmitting threshold ``K = max(0, ceil(threshold(C)))``.  The
        form holds only on a census path whose dynamics ignore
        admission: no retries (they fire at rate ``retry * (N - M)``)
        and no lost-calls clearing of a finite ``K`` (cleared flows
        never enter ``N``; clearing is refused with readmission).
        Policies without it — finite non-readmitting thresholds, whose
        ``M`` depends on the order of past events, and custom
        subclasses — return None.
        """
        return None


class AdmitAll(AdmissionPolicy):
    """Best-effort-only: every flow is always admitted."""

    def admits(self, admitted: int, capacity: float) -> bool:
        return True

    def admitted_cap(self, capacity: float) -> Optional[float]:
        return float("inf")

    def __repr__(self) -> str:
        return "AdmitAll()"


class ConstantThreshold:
    """Picklable ``capacity -> threshold`` returning a fixed value.

    The ensemble runner ships admission policies to worker processes,
    so the built-in threshold closures must survive pickling — a plain
    lambda would not.
    """

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, capacity: float) -> float:
        return self.value


class FixedLoadThreshold:
    """Picklable ``capacity -> k_max(capacity)`` over a fixed-load model."""

    def __init__(self, model: FixedLoadModel):
        self.model = model

    def __call__(self, capacity: float) -> float:
        return self.model.k_max(capacity)


class ThresholdAdmission(AdmissionPolicy):
    """Admit while the admitted count is below ``k_max(capacity)``.

    Parameters
    ----------
    k_max:
        Either an integer/float threshold, or a callable
        ``capacity -> threshold``.
    readmit_waiting:
        Hand freed slots to waiting rejected flows (default False,
        matching the paper's basic model).
    """

    def __init__(self, k_max, *, readmit_waiting: bool = False):
        if callable(k_max):
            self._k_max_fn: Callable[[float], float] = k_max
        else:
            value = float(k_max)
            if value < 0:
                raise ValueError(f"k_max must be >= 0, got {k_max!r}")
            self._k_max_fn = ConstantThreshold(value)
        self.readmit_waiting = bool(readmit_waiting)

    @classmethod
    def from_utility(
        cls, utility: UtilityFunction, *, readmit_waiting: bool = False
    ) -> "ThresholdAdmission":
        """The paper's policy: threshold at the fixed-load optimum.

        Builds a :class:`FixedLoadModel` over ``utility`` and uses its
        ``k_max(C)`` — the utility-maximising admitted count — as the
        capacity-dependent threshold.
        """
        model = FixedLoadModel(utility)
        return cls(FixedLoadThreshold(model), readmit_waiting=readmit_waiting)

    def threshold(self, capacity: float) -> float:
        return float(self._k_max_fn(capacity))

    def admits(self, admitted: int, capacity: float) -> bool:
        return admitted < self.threshold(capacity)

    def admitted_cap(self, capacity: float) -> Optional[float]:
        thr = self.threshold(capacity)
        if math.isinf(thr):
            # no threshold: every arrival is admitted, so M = N
            return math.inf
        if not self.readmit_waiting:
            return None
        # an arrival is admitted iff M < thr, i.e. M < ceil(thr) for
        # integer M; readmission refills every freed slot at once, so
        # M stays at min(N, ceil(thr)) through births and deaths alike
        return float(max(0, math.ceil(thr)))

    def __repr__(self) -> str:
        return f"ThresholdAdmission(readmit_waiting={self.readmit_waiting!r})"
