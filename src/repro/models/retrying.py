"""The retrying extension — Section 5.2 of the paper.

The basic model writes a rejected reservation off as zero utility.  In
reality the user tries again: they eventually get in, but the delay
costs them something.  The extension charges a utility penalty
``alpha`` per retry and lets the retries themselves inflate the
offered load.

Following the paper, the retry process is not modelled explicitly;
instead the total offered load (originals plus retries) is assumed to
follow the same distribution family with an inflated average: if the
intrinsic demand has mean ``L`` and each flow retries ``D`` times on
average, the offered census is ``P_{L~}`` with

    L~ = L * (1 + D),     D = theta / (1 - theta),

where ``theta`` is the per-attempt flow-weighted blocking probability
at offered load ``L~`` — a one-dimensional fixed point.  Each retry is
a fresh attempt facing the same blocking odds (geometric retries).
The average utility per *intrinsic* flow is then

    R~_L(C) = (L~ / L) * R_{L~}(C) - alpha * D,

the paper's Section 5.2 expression: admitted utility is accounted at
the inflated census and re-based to intrinsic flows, minus the retry
penalty.  Best-effort utility is unchanged — nothing is ever blocked.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.caching import BoundedCache
from repro.errors import ModelError
from repro.loads.base import LoadDistribution
from repro.models.base import CapacityModel
from repro.models.fixed_load import validated_capacities
from repro.models.variable_load import VariableLoadModel
from repro.numerics.series import fixed_point
from repro.utility.base import UtilityFunction

#: Retry penalty used throughout the paper's Section 5.2 numbers.
ALPHA_PAPER = 0.1

#: Blocking probabilities above this make the retry fixed point
#: meaningless (offered load would diverge); we raise instead.
THETA_CEILING = 0.9


class RetryingModel(CapacityModel):
    """Reservation model with blocked flows retrying (paper Section 5.2).

    Parameters
    ----------
    load:
        Intrinsic demand distribution (mean ``L``).  Its family must
        support :meth:`~repro.loads.base.LoadDistribution.rescaled`.
    utility:
        Application utility ``pi(b)``.
    alpha:
        Utility penalty per retry (the paper uses 0.1).
    """

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        *,
        alpha: float = ALPHA_PAPER,
        k_max_limit: Optional[int] = None,
        k_max_override=None,
    ):
        if alpha < 0.0:
            raise ValueError(f"retry penalty alpha must be >= 0, got {alpha!r}")
        self._load = load
        self._utility = utility
        self._alpha = float(alpha)
        self._k_max_limit = k_max_limit
        self._k_max_override = k_max_override
        self._base = VariableLoadModel(
            load, utility, k_max_limit=k_max_limit, k_max_override=k_max_override
        )
        self._intrinsic_mean = load.mean
        # inflated models are heavyweight (each carries its own pmf
        # arrays), so that cache is bounded tightly; both caches round
        # float keys to the solver tolerance so equal-but-not-identical
        # means/capacities from sweeps share entries
        self._inflated_cache = BoundedCache(maxsize=64)
        self._fixed_point_cache = BoundedCache()

    @property
    def alpha(self) -> float:
        """Utility penalty charged per retry."""
        return self._alpha

    @property
    def mean_load(self) -> float:
        """Intrinsic mean load ``L``: per-flow utilities times this are totals."""
        return self._intrinsic_mean

    @property
    def base_model(self) -> VariableLoadModel:
        """The no-retries model this extends."""
        return self._base

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _model_at_mean(self, mean: float) -> VariableLoadModel:
        """Variable-load model for the family rescaled to ``mean``."""
        model = self._inflated_cache.get(mean)
        if model is None:
            model = VariableLoadModel(
                self._load.rescaled(mean),
                self._utility,
                k_max_limit=self._k_max_limit,
                k_max_override=self._k_max_override,
            )
            self._inflated_cache.put(mean, model)
        return model

    def offered_mean(self, capacity: float) -> float:
        """Self-consistent offered load ``L~ = L (1 + D)`` at ``C``.

        Solved by damped fixed-point iteration on the map
        ``m -> L / (1 - theta_m(C))``; the map is a contraction at the
        blocking levels the model is valid for.
        """
        cached = self._fixed_point_cache.get(capacity)
        if cached is not None:
            return cached

        intrinsic = self._intrinsic_mean

        def step(mean: float) -> float:
            theta = self._model_at_mean(mean).blocking_fraction(capacity)
            if theta >= THETA_CEILING:
                raise ModelError(
                    f"blocking fraction {theta:.3f} at C={capacity} exceeds "
                    f"{THETA_CEILING}; the retry load diverges — the model "
                    "is outside its validity range (provision more capacity)"
                )
            return intrinsic / (1.0 - theta)

        solution = fixed_point(
            step,
            intrinsic,
            tol=1e-9,
            damping=0.7,
            label=f"retry offered load at C={capacity}",
        )
        self._fixed_point_cache.put(capacity, solution)
        return solution

    def retries_per_flow(self, capacity: float) -> float:
        """``D``: expected number of retries each intrinsic flow makes."""
        return self.offered_mean(capacity) / self._intrinsic_mean - 1.0

    def blocking_probability(self, capacity: float) -> float:
        """Per-attempt flow-weighted blocking at the inflated load."""
        mean = self.offered_mean(capacity)
        return self._model_at_mean(mean).blocking_fraction(capacity)

    # ------------------------------------------------------------------
    # the model's kernels
    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B`` over a capacity grid — the base model's (no blocking)."""
        return self._base.best_effort_batch(capacities)

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R~(C) = (L~/L) R_{L~}(C) - alpha D`` over a capacity grid.

        The paper's Section 5.2 expression.  The retry fixed point
        couples each capacity to its *own* inflated load distribution,
        so there is no shared series to vectorise; each point runs its
        own fixed point (counted as ``batch.fallback_scalar``), with
        results landing in the fixed-point cache as usual.
        """
        caps = validated_capacities(capacities)
        if obs.enabled():
            obs.counter("batch.fallback_scalar").inc(int(caps.size))
        values = np.zeros(caps.size)
        for i, capacity in enumerate(caps.tolist()):
            if capacity == 0.0:
                continue
            mean = self.offered_mean(capacity)
            ratio = mean / self._intrinsic_mean
            retries = ratio - 1.0
            inflated = self._model_at_mean(mean).reservation(capacity)
            values[i] = ratio * inflated - self._alpha * retries
        return values

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta~ = R~ - B`` over a capacity grid.

        Unlike the basic model this can go negative at very low
        capacity (heavy blocking makes retry penalties swamp the
        admission benefit), so it is *not* clipped.
        """
        caps = validated_capacities(capacities)
        return self.reservation_batch(caps) - self.best_effort_batch(caps)
