"""Flow-trace records: the operator-facing data format.

A *flow trace* is the minimal observable an operator actually has: one
(arrival, departure) pair per flow.  Everything the paper needs — the
census distribution, hence the architecture verdict — derives from it.
This module defines the in-memory record; its plain-CSV on-disk form
(`# key=value` header lines, then `arrival,departure` rows) is read and
written by :mod:`repro.traces.stream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.errors import ModelError


def _flow_arrays(arrival, departure) -> Tuple[np.ndarray, np.ndarray]:
    """Float arrays of valid flows: matching 1-D, 0 <= arrival <= departure."""
    a = np.asarray(arrival, dtype=float)
    d = np.asarray(departure, dtype=float)
    if a.ndim != 1 or a.shape != d.shape:
        raise ModelError("need matching 1-D arrival/departure arrays")
    # a NaN time fails both comparisons, where any(d < a) would let it
    # through; one ndarray .all() skips np.all's wrappers on tiny chunks
    if not ((a >= 0.0) & (d >= a)).all():
        raise ModelError("need 0 <= arrival <= departure per flow")
    return a, d


@dataclass(frozen=True)
class FlowTrace:
    """Per-flow arrival/departure times over an observation window."""

    arrival: np.ndarray
    departure: np.ndarray
    horizon: float
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        a, d = _flow_arrays(self.arrival, self.departure)
        if not 0.0 < self.horizon < math.inf:
            raise ModelError(f"horizon must be finite and > 0, got {self.horizon!r}")
        object.__setattr__(self, "arrival", a)
        object.__setattr__(self, "departure", d)

    def __len__(self) -> int:
        return len(self.arrival)

    @property
    def durations(self) -> np.ndarray:
        """Flow lifetimes (clipped at the horizon for open flows)."""
        return np.minimum(self.departure, self.horizon) - self.arrival

    @classmethod
    def from_simulation(cls, result, **metadata) -> "FlowTrace":
        """Extract a trace from a :class:`SimulationResult`.

        Flows still open at the horizon keep ``departure = inf`` (the
        census accounting treats them as present to the end).
        """
        return cls(
            arrival=result.flows.arrival.copy(),
            departure=result.flows.departure.copy(),
            horizon=result.horizon,
            metadata={str(k): str(v) for k, v in metadata.items()},
        )
