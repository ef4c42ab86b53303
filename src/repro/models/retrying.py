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
at offered load ``L~``.  Each retry is a fresh attempt facing the same
blocking odds (geometric retries), so the offered load balances when
the flows carried equal the intrinsic demand:

    L~ (1 - theta(L~)) = E_{L~}[min(K, k_max)] = L,

one monotone root per capacity.  The average utility per *intrinsic*
flow is then

    R~_L(C) = (L~ / L) * R_{L~}(C) - alpha * D,

the paper's Section 5.2 expression: admitted utility is accounted at
the inflated census and re-based to intrinsic flows, minus the retry
penalty.  Best-effort utility is unchanged — nothing is ever blocked.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.caching import BoundedCache
from repro.errors import ModelError
from repro.loads.base import LoadDistribution
from repro.models.base import CapacityModel
from repro.models.fixed_load import validated_capacities
from repro.models.variable_load import VariableLoadModel, blocked_flows
from repro.numerics.batch import find_roots
from repro.utility.base import UtilityFunction

#: Retry penalty used throughout the paper's Section 5.2 numbers.
ALPHA_PAPER = 0.1

#: Blocking probabilities above this make the retry balance
#: meaningless (offered load would diverge); we raise instead.
THETA_CEILING = 0.9

#: Relative tolerance of the balance root: the balance is solved to
#: well below the 1e-12 relative residual the model promises, as far as
#: the family's own calibration noise allows.
BALANCE_RTOL = 1e-15


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
        self._base = VariableLoadModel(
            load, utility, k_max_limit=k_max_limit, k_max_override=k_max_override
        )
        self._intrinsic_mean = load.mean
        # per-capacity (offered mean, blocking, R~) rows of the solved
        # balance, float keys rounded to the solver tolerance
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
    # the balance
    # ------------------------------------------------------------------

    @staticmethod
    def _blocked(loads, kmax: np.ndarray) -> np.ndarray:
        """:func:`~repro.models.variable_load.blocked_flows` per load."""
        return np.array([blocked_flows(ld, int(k)) for ld, k in zip(loads, kmax.tolist())])

    def _carried_gap(self, means: np.ndarray, kmax: np.ndarray) -> np.ndarray:
        """``L~ - blocked(L~) - L``: flows carried minus intrinsic demand.

        One :meth:`~repro.loads.base.LoadDistribution.rescaled_batch`
        call rescales the family to every trial mean.  ``blocked`` is
        clipped at zero, so the value at ``L~ = L`` is never positive.
        """
        loads = self._load.rescaled_batch(means)
        return means - self._blocked(loads, kmax) - self._intrinsic_mean

    def _solve(self, caps: np.ndarray) -> np.ndarray:
        """Rows ``(L~, theta, R~)`` for positive capacities, one root solve.

        The carried load ``E_{L~}[min(K, k_max)]`` increases with ``L~``
        under the family's stochastic order, so the balance has one root
        in ``[L, L / (1 - THETA_CEILING)]`` or none: no sign change
        there means blocking above the ceiling even at the largest
        offered load, and raises :class:`~repro.errors.ModelError`
        naming the capacity.  ``k_max`` comes once per capacity from the
        base model (it depends on the utility alone); ``R~`` reuses the
        converged loads and thresholds.
        """
        intrinsic = self._intrinsic_mean
        kmax = self._base.k_max_batch(caps)
        top = intrinsic / (1.0 - THETA_CEILING)
        result = find_roots(
            self._carried_gap,
            intrinsic,
            np.full(caps.size, top),
            args=(kmax.astype(float),),
            rtol=BALANCE_RTOL,
            label="retry offered load",
        )
        for j in np.flatnonzero(~result.converged):
            if np.isnan(result.roots[j]) and not result.undefined[j]:
                blocking = blocked_flows(self._load.rescaled(top), int(kmax[j])) / top
                raise ModelError(
                    f"blocking fraction {blocking:.3f} at C={caps[j]} exceeds "
                    f"{THETA_CEILING} even at offered load {top:.6g}; the retry "
                    "load diverges — the model is outside its validity range "
                    "(provision more capacity)"
                )
            result.checked_root(j, f"at C={caps[j]}")
        means = result.roots
        loads = self._load.rescaled_batch(means)
        theta = self._blocked(loads, kmax) / means
        totals = np.array(
            [
                VariableLoadModel(ld, self._utility).total_reservation_at_thresholds(
                    [c], [k]
                )[0]
                for ld, c, k in zip(loads, caps.tolist(), kmax.tolist())
            ]
        )
        retries = means / intrinsic - 1.0
        return np.column_stack([means, theta, totals / intrinsic - self._alpha * retries])

    def _balanced(self, capacities) -> np.ndarray:
        """Solved rows ``(L~, theta, R~)`` per capacity (zero rows at C = 0)."""
        caps = validated_capacities(capacities)
        rows = np.zeros((caps.size, 3))
        todo = []
        for i, c in enumerate(caps.tolist()):
            hit = self._fixed_point_cache.get(c)
            if hit is not None:
                rows[i] = hit
            elif c > 0.0:
                todo.append(i)
        if todo:
            idx = np.asarray(todo)
            rows[idx] = self._solve(caps[idx])
            for c, row in zip(caps[idx].tolist(), rows[idx]):
                self._fixed_point_cache.put(c, row)
        return rows

    def _balanced_at(self, capacity: float) -> np.ndarray:
        """One capacity's row.  ``C = 0`` refuses every flow, so its
        balance diverges: the solve raises rather than read a zero row."""
        if capacity == 0.0:
            return self._solve(np.zeros(1))[0]
        return self._balanced([capacity])[0]

    def offered_mean(self, capacity: float) -> float:
        """Self-consistent offered load ``L~ = L (1 + D)`` at ``C``.

        The root of the balance ``L~ (1 - theta(L~)) = L``.
        """
        return float(self._balanced_at(capacity)[0])

    def retries_per_flow(self, capacity: float) -> float:
        """``D``: expected number of retries each intrinsic flow makes."""
        return self.offered_mean(capacity) / self._intrinsic_mean - 1.0

    def blocking_probability(self, capacity: float) -> float:
        """Per-attempt flow-weighted blocking at the inflated load."""
        return float(self._balanced_at(capacity)[1])

    # ------------------------------------------------------------------
    # the model's kernels
    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B`` over a capacity grid — the base model's (no blocking)."""
        return self._base.best_effort_batch(capacities)

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R~(C) = (L~/L) R_{L~}(C) - alpha D`` over a capacity grid.

        The paper's Section 5.2 expression, with ``(L~/L) R_{L~}`` the
        inflated load's reservation total over the intrinsic mean.
        Every capacity not in the cache is balanced by one root solve.
        """
        return self._balanced(capacities)[:, 2]

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta~ = R~ - B`` over a capacity grid.

        Unlike the basic model this can go negative at very low
        capacity (heavy blocking makes retry penalties swamp the
        admission benefit), so it is *not* clipped.
        """
        caps = validated_capacities(capacities)
        return self.reservation_batch(caps) - self.best_effort_batch(caps)
