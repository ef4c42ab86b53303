"""Generic numeric engine for the continuum model (Section 3.2).

The continuum model replaces the discrete census by a density; the
architecture totals become integrals:

    V_B(C) = int_0^inf  P(k) k pi(C/k) dk
    V_R(C) = int_0^kmax P(k) k pi(C/k) dk + kmax pi(C/kmax) P(K > kmax)

This engine evaluates them by adaptive quadrature for *any* continuum
load and utility, serving two purposes: it extends the closed-form
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
from repro.numerics.batch import find_roots
from repro.numerics.quadrature import integrate
from repro.numerics.solvers import invert_monotone
from repro.utility.base import UtilityFunction

#: Normalised gaps below this are treated as zero by the gap solver.
GAP_FLOOR = 1e-12

#: Per-flow bandwidths scanned for the admission optimum ``b*``.  The
#: low end is the old search limit ``k = 64 C``: an argmax there means
#: ``pi(b)/b`` keeps growing as shares shrink, i.e. an elastic utility.
_SHARE_GRID = np.geomspace(1.0 / 64.0, 1e6, 2049)


class ContinuumModel:
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

    def _integrand_points(self, capacity: float, lo: float, hi: float):
        """Kink locations of ``k -> pi(C/k)`` inside ``(lo, hi)``."""
        pts = []
        for b in self._utility.breakpoints():
            if b > 0.0:
                x = capacity / b
                if lo < x < hi:
                    pts.append(x)
        if lo < self._load.support_min < hi:
            pts.append(self._load.support_min)
        return sorted(pts)

    def _weighted_utility_integral(self, capacity: float, lo: float, hi: float) -> float:
        """``int_lo^hi P(k) k pi(C/k) dk`` with kink-aware quadrature."""

        def f(k: float) -> float:
            if k <= 0.0:
                return 0.0
            return self._load.pdf(k) * k * self._utility.value(capacity / k)

        if math.isinf(hi):
            # substitute k = cut/u so the tail integral is over (0, 1]
            cut = max(lo, 1.0)
            head = 0.0
            if lo < cut:
                head = integrate(
                    f,
                    lo,
                    cut,
                    points=self._integrand_points(capacity, lo, cut),
                    tol=self._tol,
                    label=f"continuum V integral head (C={capacity})",
                )

            def g(u: float) -> float:
                if u <= 0.0:
                    return 0.0
                k = cut / u
                return f(k) * cut / (u * u)

            u_points = sorted(
                cut / x
                for x in self._integrand_points(capacity, cut, math.inf)
                if x > cut
            )
            tail = integrate(
                g,
                0.0,
                1.0,
                points=u_points,
                tol=self._tol,
                label=f"continuum V integral tail (C={capacity})",
            )
            return head + tail
        return integrate(
            f,
            lo,
            hi,
            points=self._integrand_points(capacity, lo, hi),
            tol=self._tol,
            label=f"continuum V integral (C={capacity})",
        )

    # ------------------------------------------------------------------

    def total_best_effort(self, capacity: float) -> float:
        """``V_B(C)`` by quadrature."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if capacity == 0.0:
            return 0.0
        return self._weighted_utility_integral(capacity, 0.0, math.inf)

    def total_reservation(self, capacity: float) -> float:
        """``V_R(C)`` by quadrature plus the capped-overload term."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if capacity == 0.0:
            return 0.0
        kmax = self.k_max(capacity)
        if kmax <= 0.0:
            return 0.0
        admitted = self._weighted_utility_integral(capacity, 0.0, kmax)
        overload = kmax * self._utility.value(capacity / kmax) * self._load.sf(kmax)
        return admitted + overload

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C)``."""
        return self.total_best_effort(capacity) / self._kbar

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C)``."""
        return self.total_reservation(capacity) / self._kbar

    def performance_gap(self, capacity: float) -> float:
        """``delta(C) = R(C) - B(C)`` (clipped at zero)."""
        return max(0.0, self.reservation(capacity) - self.best_effort(capacity))

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def _scalar_batch(self, fn, capacities) -> np.ndarray:
        """Per-point evaluation of ``fn`` over a grid, metered as
        scalar fallbacks — adaptive quadrature adapts its panels to
        each capacity, so there is no shared vector kernel here."""
        caps = np.asarray(capacities, dtype=float).ravel()
        if obs.enabled():
            obs.counter("batch.fallback_scalar").inc(int(caps.size))
        return np.array([fn(float(c)) for c in caps])

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B`` over a capacity grid (per-point quadrature)."""
        return self._scalar_batch(self.best_effort, capacities)

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R`` over a capacity grid (per-point quadrature)."""
        return self._scalar_batch(self.reservation, capacities)

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta`` over a capacity grid (per-point quadrature)."""
        return self._scalar_batch(self.performance_gap, capacities)

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta`` over a capacity grid (per-point inversion)."""
        return self._scalar_batch(self.bandwidth_gap, capacities)

    def bandwidth_gap(
        self,
        capacity: float,
        *,
        gap_floor: float = GAP_FLOOR,
        upper_limit: float = 1e9,
    ) -> float:
        """``Delta(C)`` solving ``B(C + Delta) = R(C)``."""
        target = self.reservation(capacity)
        if target - self.best_effort(capacity) <= gap_floor:
            return 0.0
        solution = invert_monotone(
            self.best_effort,
            target,
            capacity,
            capacity + max(1.0, capacity),
            increasing=True,
            upper_limit=upper_limit,
            label=f"continuum bandwidth gap at C={capacity}",
        )
        return max(0.0, solution - capacity)
