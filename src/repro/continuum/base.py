"""Generic numeric engine for the continuum model (Section 3.2).

The continuum model replaces the discrete census by a density; the
architecture totals become integrals:

    V_B(C) = int_0^inf  P(k) k pi(C/k) dk
    V_R(C) = int_0^kmax P(k) k pi(C/k) dk + kmax pi(C/kmax) P(K > kmax)

This engine evaluates them by adaptive quadrature for *any* continuum
load and utility, a whole capacity grid in one batched call
(:func:`repro.numerics.quadrature.integrate_rows`), serving two
purposes: it extends the closed-form
modules to cases the paper did not work out by hand, and — run against
those closed forms in the test suite — it certifies every formula we
transcribed or re-derived from the paper.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.loads.continuum import ContinuumLoad
from repro.models.base import CapacityModel
from repro.models.fixed_load import validated_capacities
from repro.numerics.batch import find_roots
from repro.numerics.quadrature import integrate_rows
from repro.utility.base import UtilityFunction

#: Per-flow bandwidths scanned for the admission optimum ``b*``.  The
#: low end is the old search limit ``k = 64 C``: an argmax there means
#: ``pi(b)/b`` keeps growing as shares shrink, i.e. an elastic utility.
_SHARE_GRID = np.geomspace(1.0 / 64.0, 1e6, 2049)


class ContinuumModel(CapacityModel):
    """Numeric continuum variable-load model for any (load, utility).

    Parameters
    ----------
    load:
        A continuum census density.
    utility:
        Application utility ``pi(b)``.
    k_max_override:
        Optional function ``C -> kmax`` replacing the numeric
        fixed-load optimisation (the ramp and rigid utilities know
        ``kmax(C) = C`` exactly; supplying it avoids optimiser noise in
        delicate asymptotic studies).
    """

    def __init__(
        self,
        load: ContinuumLoad,
        utility: UtilityFunction,
        *,
        k_max_override=None,
        tol: float = 1e-11,
    ):
        self._load = load
        self._utility = utility
        self._override = k_max_override
        self._tol = float(tol)
        self._kbar = load.mean
        self._b_star: Optional[float] = None

    @property
    def load(self) -> ContinuumLoad:
        """The census density."""
        return self._load

    @property
    def utility(self) -> UtilityFunction:
        """The application utility."""
        return self._utility

    @property
    def mean_load(self) -> float:
        """``k_bar`` of the census density."""
        return self._kbar

    def k_max(self, capacity: float) -> float:
        """Continuum admission threshold ``argmax_k k pi(C/k)``.

        With ``b = C/k`` the objective is ``C pi(b) / b``, so the
        optimum is ``k_max(C) = C / b*`` for one per-utility share
        ``b* = argmax_b pi(b)/b`` (:meth:`optimal_share`).
        """
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if capacity == 0.0:
            return 0.0
        if self._override is not None:
            return float(self._override(capacity))
        hint = getattr(self._utility, "k_max", None)
        if hint is not None:
            return float(hint(capacity))
        return capacity / self.optimal_share()

    def optimal_share(self) -> float:
        """``b* = argmax_b pi(b)/b``, computed once per model.

        A grid argmax over :data:`_SHARE_GRID`, then one root polish of
        the stationarity condition ``b pi'(b) = pi(b)`` between the
        argmax's neighbours.
        """
        if self._b_star is not None:
            return self._b_star
        utility = self._utility
        grid = _SHARE_GRID
        i = int(np.argmax(np.asarray(utility(grid), dtype=float) / grid))
        if i == 0:
            raise ModelError(
                "continuum k_max has no interior optimum; the utility appears "
                "elastic — supply k_max_override"
            )
        if obs.enabled():
            obs.counter("continuum.k_max.searches").inc()
        lo, hi = grid[i - 1], grid[min(i + 1, grid.size - 1)]
        solved = find_roots(
            lambda b: np.array([x * utility.derivative(x) - utility.value(x) for x in b]),
            lo,
            hi,
            label="continuum optimal share b*",
        )
        self._b_star = solved.checked_root(0, "for the continuum optimal share b*")
        return self._b_star

    # ------------------------------------------------------------------

    def _weighted_utility_integrals(self, caps: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``int_0^hi[i] P(k) k pi(C_i/k) dk`` for every capacity at once.

        One batched quadrature, each row split at the kinks ``C_i/b``
        of ``pi`` and at the support's left end.
        """
        kinks = [b for b in self._utility.breakpoints() if b > 0.0]
        points = [[c / b for b in kinks] + [self._load.support_min] for c in caps.tolist()]

        def f(k: np.ndarray, row: np.ndarray) -> np.ndarray:
            return self._load.pdf(k) * k * self._utility(caps[row] / k)

        return integrate_rows(
            f, 0.0, hi, points=points, tol=self._tol, label="continuum V integral"
        )

    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B`` over a capacity grid: one batched quadrature."""
        caps = validated_capacities(capacities)
        totals = np.zeros(caps.size)
        live = np.flatnonzero(caps > 0.0)
        if live.size:
            totals[live] = self._weighted_utility_integrals(
                caps[live], np.full(live.size, math.inf)
            )
        return totals / self._kbar

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R`` over a capacity grid: one batched quadrature up
        to each ``k_max`` plus the capped-overload term."""
        caps = validated_capacities(capacities)
        totals = np.zeros(caps.size)
        kmax = np.array([self.k_max(c) for c in caps.tolist()], dtype=float)
        live = np.flatnonzero(kmax > 0.0)
        if live.size:
            c, m = caps[live], kmax[live]
            admitted = self._weighted_utility_integrals(c, m)
            totals[live] = admitted + m * self._utility(c / m) * self._load.sf(m)
        return totals / self._kbar
