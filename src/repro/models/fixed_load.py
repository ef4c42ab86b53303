"""The fixed load model — Section 2 of the paper.

A single link of capacity ``C`` carries exactly ``k`` identical flows,
each receiving the equal share ``C/k``.  The total utility is

    V(k) = k * pi(C/k).

If ``V`` is increasing in ``k``, admitting everyone maximises utility
and best-effort-only wins; if ``V`` peaks at a finite ``k_max(C)``,
denying service to flows beyond ``k_max`` — i.e. an admission-capable,
reservation-style architecture — is strictly better.  Which case
applies is decided entirely by the shape of ``pi``: a convex
neighbourhood of the origin forces a finite peak, everywhere-strict
concavity makes ``V`` increase forever.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.caching import BoundedCache
from repro.errors import ModelError
from repro.utility.base import UtilityFunction
from repro.utility.probes import UtilityClass, classify

#: Search cap multiplier: k_max is sought among k <= max(64, limit_factor*C).
DEFAULT_KMAX_LIMIT_FACTOR = 64.0


def validated_capacities(capacities) -> np.ndarray:
    """``capacities`` as a flat float grid; refuses negative, NaN and inf."""
    caps = np.asarray(capacities, dtype=float).ravel()
    bad = caps[~(caps >= 0.0) | np.isinf(caps)]
    if bad.size:
        raise ValueError(f"capacity must be finite and >= 0, got {float(bad[0])!r}")
    return caps


class Architecture(enum.Enum):
    """The two candidate network architectures of the paper."""

    BEST_EFFORT = "best-effort-only"
    RESERVATION = "reservation-capable"


@dataclass(frozen=True)
class FixedLoadComparison:
    """Outcome of the Section 2 comparison at one ``(C, k)`` point."""

    capacity: float
    offered_flows: int
    k_max: int
    best_effort_total: float
    reservation_total: float

    @property
    def advantage(self) -> float:
        """Reservation minus best-effort total utility (>= 0)."""
        return self.reservation_total - self.best_effort_total

    @property
    def preferred(self) -> Architecture:
        """Architecture with the higher total utility (ties -> best effort).

        A tie means admission control never had to act, so the simpler
        architecture is preferred.
        """
        if self.reservation_total > self.best_effort_total:
            return Architecture.RESERVATION
        return Architecture.BEST_EFFORT


class FixedLoadModel:
    """Evaluate both architectures under a fixed offered load.

    Parameters
    ----------
    utility:
        The per-application utility function ``pi``.
    k_max_limit:
        Upper bound (in flows) for the ``k_max`` search at capacity C;
        defaults to ``max(64, 64*C)``.  If the optimum hits this bound,
        the utility is effectively elastic at that capacity and
        :meth:`k_max` raises — admission control has no finite optimum.
    k_max_override:
        Optional callable ``capacity -> threshold`` replacing the
        optimisation entirely.  Needed to study admission control over
        *elastic* utilities (the paper's footnote 9), whose ``V(k)``
        has no interior maximum.
    """

    def __init__(
        self,
        utility: UtilityFunction,
        *,
        k_max_limit: Optional[int] = None,
        k_max_override=None,
    ):
        self._utility = utility
        self._k_max_limit = k_max_limit
        self._k_max_override = k_max_override
        self._k_max_cache = BoundedCache()

    @property
    def utility(self) -> UtilityFunction:
        """The application utility function."""
        return self._utility

    def total_utility(self, k: int, capacity: float) -> float:
        """``V(k) = k * pi(C/k)`` — the paper's fixed-load objective."""
        if k != int(k) or k < 0:
            raise ValueError(f"flow count must be a nonnegative integer, got {k!r}")
        return self._utility.fixed_load_total(int(k), capacity)

    def k_max(self, capacity: float) -> int:
        """Utility-maximising number of admitted flows at capacity ``C``.

        A cache lookup, then a one-element :meth:`k_max_batch` call.
        """
        if self._k_max_override is None:
            cached = self._k_max_cache.get(capacity)
            if cached is not None:
                if obs.enabled():
                    obs.counter("model.k_max.cache_hits").inc()
                return cached
        return int(self.k_max_batch([capacity])[0])

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def _totals_grid(self, ks, capacities) -> np.ndarray:
        """``V(k) = k pi(C/k)`` over broadcastable flow/capacity arrays."""
        ks = np.asarray(ks, dtype=float)
        caps = np.asarray(capacities, dtype=float)
        positive = ks > 0
        shares = np.where(positive, caps / np.maximum(ks, 1.0), 0.0)
        values = np.asarray(self._utility(shares), dtype=float)
        return np.where(positive, ks * values, 0.0)

    def k_max_batch(self, capacities) -> np.ndarray:
        """Admission thresholds for a whole capacity grid at once.

        Uses the utility's analytic ``k_max`` hint when available (the
        rigid, ramp and power-law families know theirs exactly), refined
        over the integers by a vectorised window-and-walk.  Without one,
        ``V(k)`` is unimodal for every inelastic utility (the paper's
        premise), so the peak is located by a vectorised search on the
        discrete slope — the smallest ``k`` with ``V(k+1) <= V(k)`` —
        followed by a local safeguard walk.  An
        optimum at the search limit means the utility is effectively
        elastic there and raises :class:`ModelError`.
        """
        caps = validated_capacities(capacities)
        result = np.zeros(caps.size, dtype=np.int64)
        if self._k_max_override is not None:
            for i, c in enumerate(caps):
                result[i] = 0 if c == 0.0 else int(self._k_max_override(float(c)))
            return result

        todo = []
        for i, c in enumerate(caps):
            if c == 0.0:
                continue
            cached = self._k_max_cache.get(float(c))
            if cached is not None:
                result[i] = cached
                if obs.enabled():
                    obs.counter("model.k_max.cache_hits").inc()
            else:
                todo.append(i)
        if not todo:
            return result
        if obs.enabled():
            obs.counter("model.k_max.searches").inc(len(todo))
            obs.counter("batch.k_max.points").inc(len(todo))

        idx = np.asarray(todo, dtype=np.int64)
        sub = caps[idx]
        col = sub.reshape(-1, 1)

        hint = getattr(self._utility, "k_max", None)
        if hint is not None:
            centers = np.array(
                [int(round(float(hint(float(c))))) for c in sub], dtype=np.int64
            )
            lo = np.maximum(0, centers - 3)
            window = lo.reshape(-1, 1) + np.arange(8)
            values = self._totals_grid(window, col)
            best = window[np.arange(len(sub)), np.argmax(values, axis=1)]
        else:
            limit = self._k_max_limit
            if limit is not None:
                limits = np.full(len(sub), int(limit), dtype=np.int64)
            else:
                limits = np.maximum(
                    64, (DEFAULT_KMAX_LIMIT_FACTOR * sub).astype(np.int64) + 64
                )
            # k-ary search: each round tests the slope at `probes` points
            # of every open [lo, hi) and keeps the piece holding the
            # first descending one.  Small grids (single points) take
            # many probes per round, large grids few (probes=1 is
            # bisection), so a round stays one modest numpy call.
            probes = max(1, min(128, 4096 // len(sub)))
            fractions = np.arange(1, probes + 1) / (probes + 1)
            rows = np.arange(len(sub))
            search_lo = np.zeros(len(sub), dtype=np.int64)
            search_hi = limits.copy()
            while True:
                open_mask = search_lo < search_hi
                if not np.any(open_mask):
                    break
                span = (search_hi - search_lo).reshape(-1, 1)
                mids = search_lo.reshape(-1, 1) + (span * fractions).astype(np.int64)
                values = self._totals_grid(np.hstack([mids, mids + 1]), col)
                descending = values[:, probes:] <= values[:, :probes]
                first = np.where(
                    descending.any(axis=1), descending.argmax(axis=1), probes
                )
                search_hi = np.where(
                    open_mask & (first < probes),
                    mids[rows, np.minimum(first, probes - 1)],
                    search_hi,
                )
                search_lo = np.where(
                    open_mask & (first > 0),
                    mids[rows, np.maximum(first - 1, 0)] + 1,
                    search_lo,
                )
            best = search_lo
            if np.any(best >= limits):
                bad = int(idx[np.argmax(best >= limits)])
                raise ModelError(
                    f"k_max search hit the limit {int(limits.max())} at "
                    f"C={caps[bad]}; the utility appears elastic (V(k) "
                    "increasing) — admission control has no finite optimum "
                    "(paper Section 2)"
                )

        # safeguard walk (vectorised): nudge until locally optimal,
        # preferring a step down, one V(k-1), V(k), V(k+1) call per step
        steps = np.array([-1, 0, 1])
        while True:
            values = self._totals_grid(
                np.maximum(best.reshape(-1, 1) + steps, 0), col
            )
            down = (best > 0) & (values[:, 0] > values[:, 1])
            up = ~down & (values[:, 2] > values[:, 1])
            if not np.any(down | up):
                break
            best = best - down + up

        result[idx] = best
        for j, i in enumerate(idx):
            self._k_max_cache.put(float(caps[i]), int(best[j]))
        return result

    def compare(self, offered_flows: int, capacity: float) -> FixedLoadComparison:
        """Compare the two architectures at one fixed load point.

        Best-effort admits all ``k`` flows; the reservation architecture
        admits ``min(k, k_max(C))`` and the rest get zero utility.
        """
        if offered_flows < 0 or offered_flows != int(offered_flows):
            raise ValueError(
                f"offered flow count must be a nonnegative integer, got {offered_flows!r}"
            )
        k = int(offered_flows)
        kmax = self.k_max(capacity)
        admitted = min(k, kmax)
        return FixedLoadComparison(
            capacity=capacity,
            offered_flows=k,
            k_max=kmax,
            best_effort_total=self.total_utility(k, capacity),
            reservation_total=self.total_utility(admitted, capacity),
        )

    def needs_admission_control(self, *, horizon: float = 8.0) -> bool:
        """Section 2 verdict: does this utility ever want flows denied?

        True for inelastic utilities (convex neighbourhood of the
        origin, or a dead zone), false for everywhere-concave ones.
        """
        verdict = classify(self._utility, horizon=horizon)
        if verdict is UtilityClass.INDETERMINATE:
            # fall back to a direct probe: does V(k) peak before 8x C?
            capacity = 64.0
            kmax = self.k_max(capacity)
            tail = self.total_utility(int(8 * capacity), capacity)
            return self.total_utility(kmax, capacity) > tail + 1e-12
        return verdict is UtilityClass.INELASTIC

    @staticmethod
    def rigid_k_max(capacity: float, b_hat: float = 1.0) -> int:
        """Closed form for the rigid case: ``floor(C / b_hat)``."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return int(math.floor(capacity / b_hat))
