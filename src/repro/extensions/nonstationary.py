"""Nonstationary loads (Section 5's "other extensions").

The paper mentions nonstationary loads — the probability distribution
itself changing over time (diurnal rhythms, weekday/weekend regimes) —
among the extensions that perturbed small-C behaviour without changing
the asymptotics.  If the system spends fraction ``w_i`` of time in
regime ``i`` with census ``P_i(k)``, the long-run utility average is
the ``w``-mixture of the per-regime quantities — equivalently, the
variable-load model run on the mixture census

    P(k) = sum_i w_i P_i(k),

which this class provides as a first-class
:class:`~repro.loads.base.LoadDistribution` (so every model, including
the welfare and retry machinery, works on it unchanged).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.loads.base import LoadDistribution


class MixtureLoad(LoadDistribution):
    """Convex mixture of census distributions (time-share regimes).

    Parameters
    ----------
    components:
        Sequence of ``(weight, load)`` pairs; weights must be positive
        and are normalised to sum to one.
    """

    name = "mixture"

    def __init__(self, components: Sequence[Tuple[float, LoadDistribution]]):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _ in components], dtype=float)
        if np.any(weights <= 0.0):
            raise ValueError(f"mixture weights must be > 0, got {list(weights)!r}")
        self._weights = tuple(float(w) for w in weights / weights.sum())
        self._loads = tuple(load for _, load in components)
        self.support_min = min(load.support_min for load in self._loads)

    @property
    def weights(self) -> tuple:
        """Normalised regime time shares."""
        return self._weights

    @property
    def components(self) -> tuple:
        """Per-regime census distributions."""
        return self._loads

    def pmf(self, k: int) -> float:
        self.validate_k(k)
        return sum(w * load.pmf(k) for w, load in zip(self._weights, self._loads))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        total = np.zeros(np.asarray(ks).shape)
        for w, load in zip(self._weights, self._loads):
            total += w * np.asarray(load.pmf_array(ks), dtype=float)
        return total

    @property
    def mean(self) -> float:
        return sum(w * load.mean for w, load in zip(self._weights, self._loads))

    def sf(self, k: int) -> float:
        self.validate_k(k)
        return sum(w * load.sf(k) for w, load in zip(self._weights, self._loads))

    def mean_tail(self, n: int) -> float:
        return sum(
            w * load.mean_tail(n) for w, load in zip(self._weights, self._loads)
        )

    def continuous_pmf(self, x):
        return sum(
            w * load.continuous_pmf(x) for w, load in zip(self._weights, self._loads)
        )

    def rescaled(self, new_mean: float) -> "MixtureLoad":
        """Scale every regime's mean by the same factor.

        Keeps the regime *shape* (relative busy/quiet ratio) fixed,
        which is the natural reading of "the same nonstationary pattern
        at higher demand" — and what the retry fixed point needs.
        """
        if new_mean <= 0.0:
            raise ValueError(f"mean must be > 0, got {new_mean!r}")
        factor = new_mean / self.mean
        return MixtureLoad(
            [
                (w, load.rescaled(load.mean * factor))
                for w, load in zip(self._weights, self._loads)
            ]
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({w!r}, {load!r})" for w, load in zip(self._weights, self._loads)
        )
        return f"MixtureLoad([{parts}])"
