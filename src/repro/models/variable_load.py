"""The discrete variable load model — Section 3.1 of the paper.

The load is a probability distribution ``P(k)`` over the number of
flows requesting service.  With link capacity ``C``:

- **Best-effort-only** admits everyone; each of ``k`` flows receives
  ``C/k``, so the total utility is ``V_B(C) = sum_k P(k) k pi(C/k)``.
- **Reservation-capable** admits at most ``k_max(C)`` flows (the
  fixed-load optimum); each admitted flow receives
  ``C/min(k, k_max)`` and each rejected flow receives nothing:
  ``V_R(C) = sum_{k<=k_max} P(k) k pi(C/k)
           + k_max pi(C/k_max) P(K > k_max)``.

Both are reported normalised by the mean load, ``B(C) = V_B(C)/k_bar``
and ``R(C) = V_R(C)/k_bar``, exactly as in the paper's figures.  The
two headline quantities are the *performance gap*
``delta(C) = R(C) - B(C)`` and the *bandwidth gap* ``Delta(C)``
defined implicitly by ``B(C + Delta(C)) = R(C)`` — how much extra
capacity buys best-effort the reservation architecture's utility.

Numerics
--------
Every census sum runs over the load's mass window ``[k_lo, k_hi]``
(:meth:`~repro.loads.LoadDistribution.mass_window`), outside which
each side holds a negligible share of the first moment: a Poisson
sum costs ``O(sqrt(k_bar))`` terms at any ``k_bar``.  The sum for
``V_B`` is truncated where an analytic bound on the remainder
(``pi(C/N) * sum_{k>=N} k P(k)``, both closed-form) drops below
tolerance.  Under heavy-tailed loads at large ``C`` that truncation
point can exceed any reasonable array size, so beyond a cap the far
tail is replaced by an Euler-Maclaurin integral of the smooth pmf
extension — exact integrand, no model-specific approximation.  A sum
no plan can certify raises :class:`~repro.errors.OutOfDomainError`.

The model supplies ``V_B`` and ``V_R`` as ``*_batch`` kernels over a
capacity grid; ``delta``, ``Delta``, the scalar entry points and the
sweep are derived once, by :class:`~repro.models.base.CapacityModel`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import obs
from repro.caching import BoundedCache
from repro.errors import OutOfDomainError
from repro.loads.base import LoadDistribution
from repro.models.base import CapacityModel
from repro.models.fixed_load import FixedLoadModel, validated_capacities
from repro.numerics import series
from repro.numerics.batch import share_weighted_sums
from repro.numerics.quadrature import integrate_rows
from repro.numerics.solvers import invert_monotone
from repro.utility.base import UtilityFunction

#: Default absolute tolerance on the (unnormalised) total utilities.
DEFAULT_TOL = 1e-9

#: Largest array length brute-force summation will allocate: the most
#: terms one series level spans past the window's left edge.
BRUTE_FORCE_CAP = 1 << 22

#: Share of the model's ``tol`` each side of the load's mass window may
#: leave out.
WINDOW_SHARE = 1e-3

#: Evaluation modes chosen by the series planner (:meth:`_plan_batch`):
#: full dense summation up to a level, dense head + shared polynomial
#: tail at a level, or the Euler-Maclaurin integral fallback.
_MODE_DENSE = 0
_MODE_TAIL = 1
_MODE_EM = 2

#: Span of the first series level past the window's left edge.  Levels
#: below the historical 1024 matter once the polynomial tail exists: a
#: solver probe at C ~ 80 clears the certified remainder bound already
#: at n = 256, quartering its dense head.  A finite window (Poisson)
#: plans DENSE at the first level or at its right edge, whichever is
#: later (see :meth:`VariableLoadModel._plan_batch`).
_PLAN_MIN_LEVEL = 256


def blocked_flows(load: LoadDistribution, threshold: int) -> float:
    """``sum_{k > m} P(k) (k - m)``: flows refused at admission threshold ``m``.

    ``sum_{k>m} k P(k)`` is ``mean_tail(m + 1)`` and ``sum_{k>m} P(k)``
    is ``sf(m)``; a threshold below 1 refuses every flow.  Clipped at
    zero, so truncation noise never reads as negative blocking.
    """
    if threshold < 1:
        return load.mean
    return max(0.0, load.mean_tail(threshold + 1) - threshold * load.sf(threshold))


def _split_cached(cache: BoundedCache, caps: np.ndarray) -> tuple:
    """``(totals, todo)``: cached totals filled in, the rest to compute.

    ``C = 0`` is exactly 0.0 and never computed; ``todo`` indexes the
    positive capacities the cache missed.
    """
    totals = np.zeros(caps.size)
    todo = []
    for i, c in enumerate(caps.tolist()):
        if c == 0.0:
            continue
        hit = cache.get(c)
        if hit is None:
            todo.append(i)
        else:
            totals[i] = hit
    return totals, np.asarray(todo, dtype=np.int64)


class VariableLoadModel(CapacityModel):
    """Compare architectures under a distribution of offered loads.

    Parameters
    ----------
    load:
        The stationary flow-count distribution ``P(k)``.
    utility:
        The per-application utility ``pi(b)``.
    tol:
        Absolute truncation tolerance for the total-utility sums
        (unnormalised units, i.e. flows' worth of utility).
    k_max_limit:
        Passed through to :class:`FixedLoadModel` for the ``k_max``
        search; only needed for exotic utilities.
    k_max_override:
        Optional ``capacity -> threshold`` replacing the ``k_max``
        optimisation (required for elastic utilities, footnote 9).
    """

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        *,
        tol: float = DEFAULT_TOL,
        k_max_limit: Optional[int] = None,
        k_max_override=None,
    ):
        if tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {tol!r}")
        self._load = load
        self._utility = utility
        self._tol = float(tol)
        # certified Maclaurin expansion of pi (None for rigid/ramp
        # utilities) — enables the shared polynomial-tail evaluation
        self._maclaurin = utility.maclaurin(series.TAIL_DEGREE)
        self._fixed = FixedLoadModel(
            utility, k_max_limit=k_max_limit, k_max_override=k_max_override
        )
        self._kbar = load.mean
        # where every census sum runs; grown-on-demand k*P(k) weights
        # from its left edge, and the load's mean_tail at each level
        self._k_lo, self._k_hi = load.mass_window(WINDOW_SHARE * self._tol)
        self._kpk = np.empty(0)
        self._level_tails: dict = {}
        # per-capacity totals: float keys rounded to the solver
        # x-tolerance (so gap-solver probes hit) and LRU-bounded (so
        # long sweeps cannot grow them without limit)
        self._b_cache = BoundedCache()
        self._r_cache = BoundedCache()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @property
    def load(self) -> LoadDistribution:
        """The offered-load distribution."""
        return self._load

    @property
    def utility(self) -> UtilityFunction:
        """The application utility function."""
        return self._utility

    @property
    def mean_load(self) -> float:
        """``k_bar``, the average number of flows requesting service."""
        return self._kbar

    def k_max(self, capacity: float) -> int:
        """Admission threshold used by the reservation architecture."""
        return self._fixed.k_max(capacity)

    def k_max_batch(self, capacities) -> np.ndarray:
        """Admission thresholds over a capacity grid (vectorised)."""
        return self._fixed.k_max_batch(capacities)

    # ------------------------------------------------------------------
    # internal summation machinery
    # ------------------------------------------------------------------

    @property
    def window(self) -> tuple:
        """``(k_lo, k_hi)``: the load's mass window the sums run over."""
        return self._k_lo, self._k_hi

    def census_terms(self, stop: int) -> np.ndarray:
        """``k P(k)`` for ``k_lo <= k < stop``, a view of a grown prefix.

        A finite window wider than ``BRUTE_FORCE_CAP`` is refused with
        :class:`~repro.errors.OutOfDomainError` before anything is
        allocated: no plan can certify a sum over it.
        """
        span = stop - self._k_lo
        terms = self._kpk
        if len(terms) < span:
            if math.isfinite(self._k_hi) and self._k_hi - self._k_lo > BRUTE_FORCE_CAP:
                raise OutOfDomainError(
                    f"the mass window [{self._k_lo}, {self._k_hi}] of {self._load!r} "
                    f"spans more than {BRUTE_FORCE_CAP} terms"
                )
            size = 1 << max(10, (span - 1).bit_length())
            ks = np.arange(self._k_lo, self._k_lo + size, dtype=float)
            terms = self._kpk = ks * np.asarray(self._load.pmf_array(ks), dtype=float)
        return terms[: max(0, span)]

    def _plan_batch(self, caps: np.ndarray) -> tuple:
        """Choose an evaluation mode and series level per capacity.

        Walks the levels ``k_lo + 256 * 2^j`` once for the whole grid,
        testing each level's two closing rules on the capacities still
        open: DENSE when the plain tail bound
        ``min(1, pi(C/n)) * mean_tail(n)`` clears the tolerance, else
        TAIL when the utility's certified Maclaurin remainder fits in
        half the tolerance *and* the load can supply a moment-tail
        table at that level — the dense head then stops at ``n`` and
        the rest is the shared polynomial.  TAIL serves right tails
        without a window edge only: a finite window is cheaper to sum
        than to tabulate.  Whatever is still open once a level would
        span more than ``BRUTE_FORCE_CAP`` terms falls to the
        Euler-Maclaurin integral.  No level stops inside a finite
        window: a level there may leave out all of ``tol``, more than a
        small gap ``R - B`` can carry, so it moves to ``k_hi + 1``,
        past which the window leaves out ``WINDOW_SHARE * tol``.
        """
        modes = np.full(caps.size, _MODE_EM, dtype=np.int64)
        levels = np.full(caps.size, -1, dtype=np.int64)
        open_ = np.arange(caps.size)
        span = _PLAN_MIN_LEVEL
        while open_.size and span <= BRUTE_FORCE_CAP:
            n = self._k_lo + span
            mt = self._level_tails.get(n)
            if mt is None:
                mt = self._level_tails[n] = self._load.mean_tail(n)
            shares = caps[open_] / n
            dense = np.minimum(1.0, self._utility(shares)) * mt < self._tol
            tail = np.zeros_like(dense)
            if self._maclaurin is not None and math.isinf(self._k_hi) and not np.all(dense):
                bound = self._maclaurin.remainder_bound(shares[~dense]) * mt
                tail[~dense] = bound <= 0.5 * self._tol
                if np.any(tail) and series.shared_moment_tail_table(self._load, n) is None:
                    tail[:] = False
            modes[open_[dense]] = _MODE_DENSE
            modes[open_[tail]] = _MODE_TAIL
            levels[open_[dense | tail]] = n
            open_ = open_[~(dense | tail)]
            span <<= 1
        if math.isfinite(self._k_hi):
            np.maximum(levels, self._k_hi + 1, out=levels, where=levels >= 0)
        return modes, levels

    def _euler_maclaurin_tails(self, caps: np.ndarray, n0s: np.ndarray) -> np.ndarray:
        """``sum_{k>=n0} P(k) k pi(C/k)`` via integral + EM correction.

        ``sum_{k>=n0} f(k) ~ int_{n0}^inf f + f(n0)/2 - f'(n0)/12`` for a
        smooth, decaying ``f``.  The integrand uses the load's smooth
        pmf extension and the *exact* utility; the integrals of the
        whole grid are one batched quadrature, each split at the
        utility's breakpoints mapped into flow counts.  A row whose
        ``pi(C/n0)`` is 0 has an exactly zero tail: ``pi`` is
        nondecreasing and every share beyond ``n0`` is smaller.
        """
        tails = np.zeros(caps.size)
        live = np.flatnonzero(np.asarray(self._utility(caps / n0s), dtype=float) != 0.0)
        if live.size == 0:
            return tails
        caps, n0s = caps[live], n0s[live].astype(float)

        def f(x: np.ndarray, row: np.ndarray) -> np.ndarray:
            return self._load.continuous_pmf(x) * x * self._utility(caps[row] / x)

        kinks = [b for b in self._utility.breakpoints() if b > 0.0]
        integrals = integrate_rows(
            f,
            n0s,
            math.inf,
            points=[[c / b for b in kinks] for c in caps.tolist()],
            tol=min(1e-11, 0.01 * self._tol),
            label="EM tail",
        )
        rows = np.arange(caps.size)
        h = np.maximum(1e-4 * n0s, 1e-3)
        f_prime = (f(n0s + h, rows) - f(n0s - h, rows)) / (2.0 * h)
        tails[live] = integrals + 0.5 * f(n0s, rows) - f_prime / 12.0
        return tails

    def _em_totals(self, caps: np.ndarray) -> np.ndarray:
        """``V_B`` as a dense head plus the Euler-Maclaurin tail.

        The head spans ``[k_lo, n0)``, ``n0 - k_lo`` the first power of
        two above ``32 C`` clamped to ``[2^12, BRUTE_FORCE_CAP]``, and
        runs as one share-weighted sum per ``n0`` group; the tails past
        ``n0`` are one batched quadrature over the grid
        (:meth:`_euler_maclaurin_tails`).  A load with no smooth pmf
        extension is refused with :class:`~repro.errors.OutOfDomainError`.
        """
        n0s = np.array(
            [
                self._k_lo + min(BRUTE_FORCE_CAP, 1 << max(12, int(32 * c).bit_length()))
                for c in caps.tolist()
            ],
            dtype=np.int64,
        )
        totals = np.empty(caps.size)
        for n0 in np.unique(n0s).tolist():
            group = n0s == n0
            totals[group] = share_weighted_sums(
                caps[group], self.census_terms(n0), self._utility, k_start=self._k_lo
            )
        try:
            return totals + self._euler_maclaurin_tails(caps, n0s)
        except NotImplementedError as exc:
            raise OutOfDomainError(
                f"V_B(C={caps.tolist()}) needs a tail correction but the load "
                f"has no smooth pmf extension: {exc}"
            ) from exc

    def _reservation_totals(self, caps: np.ndarray, kmax: np.ndarray) -> np.ndarray:
        """``V_R`` at per-capacity admission thresholds ``kmax >= 1``.

        One masked share-weighted sum over the admitted flows in the
        window, ``k_lo <= k <= min(k_max, k_hi)``, plus the overload term
        ``k_max pi(C/k_max) P(K > k_max)``.  Rows are summed in groups of
        thresholds within a quarter octave of each other, so each row's
        sum stops near its own ``k_max`` rather than at the largest one
        in the grid.
        """
        admitted = np.empty(caps.size)
        groups = np.floor(4.0 * np.log2(kmax)).astype(np.int64)
        for group in np.unique(groups).tolist():
            idx = np.flatnonzero(groups == group)
            top = min(int(kmax[idx].max()), self._k_hi)
            admitted[idx] = share_weighted_sums(
                caps[idx],
                self.census_terms(top + 1),
                self._utility,
                k_start=self._k_lo,
                kmax=kmax[idx],
            )
        sf = np.asarray(self._load.sf_array(kmax), dtype=float)
        at_cap = np.asarray(self._utility(caps / kmax), dtype=float)
        return admitted + kmax * at_cap * sf

    def total_reservation_at_threshold(self, capacity: float, threshold: int) -> float:
        """``V_R(C)`` with an *arbitrary* admission threshold.

        The paper's architecture uses the utility-maximising
        ``k_max(C)``; real admission controllers get the threshold
        wrong (measurement error, trunk-reservation margins).  This
        evaluates the reservation total at any threshold so that
        sensitivity can be quantified — by construction it is maximised
        at ``threshold = k_max(C)``.  A one-element view of
        :meth:`total_reservation_at_thresholds`.
        """
        if threshold < 0 or threshold != int(threshold):
            raise ValueError(f"threshold must be a nonneg integer, got {threshold!r}")
        return float(self.total_reservation_at_thresholds([capacity], [threshold])[0])

    def total_reservation_at_thresholds(self, capacities, thresholds) -> np.ndarray:
        """``V_R`` over a capacity grid, each point at its own threshold.

        The smooth pieces ``V_R^m`` whose upper envelope over ``m`` is
        ``V_R``; thresholds below the load's support give 0.
        """
        caps = validated_capacities(capacities)
        given = np.asarray(thresholds, dtype=float).ravel()
        kmax = given.astype(np.int64)
        if given.size != caps.size or np.any((kmax != given) | (kmax < 0)):
            raise ValueError("thresholds must be nonneg integers, one per capacity")
        totals = np.zeros(caps.size)
        live = np.flatnonzero((caps > 0.0) & (kmax >= max(1, self._load.support_min)))
        if live.size:
            totals[live] = self._reservation_totals(caps[live], kmax[live])
        return totals

    def reservation_at_threshold(self, capacity: float, threshold: int) -> float:
        """Normalised reservation utility at an arbitrary threshold."""
        return self.total_reservation_at_threshold(capacity, threshold) / self._kbar

    # ------------------------------------------------------------------
    # batch evaluation (whole-grid sweeps)
    # ------------------------------------------------------------------

    @obs.timed("model.total_best_effort_batch")
    def total_best_effort_batch(self, capacities, *, cache: bool = True) -> np.ndarray:
        """``V_B`` over a capacity grid in a handful of numpy calls.

        Capacities are grouped by the planner's (mode, level) — levels
        sit a power of two past the window's left edge, so grids share
        a few groups.  Each DENSE or TAIL group's head runs as one
        chunked matrix product; TAIL groups then add the shared
        polynomial tail, one Horner pass over the group's grid from the
        memoised moment table (no per-point series work).  Capacities
        the planner leaves open past ``BRUTE_FORCE_CAP`` terms take the
        Euler-Maclaurin integral (:meth:`_em_totals`).

        ``cache=False`` bypasses the per-capacity LRU entirely (neither
        read nor written).  The bandwidth-gap solver uses it for its
        Chandrupatla probes: each probe point is evaluated exactly once
        per solve, so caching them buys nothing and evicts the sweep's
        reusable entries; the per-point Python cache traffic is also a
        measurable slice of a solve's wall time.
        """
        caps = validated_capacities(capacities)
        if cache:
            totals, todo = _split_cached(self._b_cache, caps)
        else:
            totals, todo = np.zeros(caps.size), np.flatnonzero(caps != 0.0)
        if todo.size == 0:
            return totals
        modes, levels = self._plan_batch(caps[todo])
        for mode, n in sorted(set(zip(modes.tolist(), levels.tolist()))):
            idx = todo[(modes == mode) & (levels == n)]
            if mode == _MODE_EM:
                totals[idx] = self._em_totals(caps[idx])
                continue
            sums = share_weighted_sums(
                caps[idx], self.census_terms(n), self._utility, k_start=self._k_lo
            )
            if mode == _MODE_TAIL:
                table = series.shared_moment_tail_table(self._load, n)
                sums = sums + series.power_series_tail(
                    self._maclaurin.coefficients, table, caps[idx]
                )
            totals[idx] = sums
        if cache:
            for c, total in zip(caps[todo].tolist(), totals[todo].tolist()):
                self._b_cache.put(c, total)
        return totals

    @obs.timed("model.total_reservation_batch")
    def total_reservation_batch(self, capacities) -> np.ndarray:
        """``V_R`` over a capacity grid: batch ``k_max`` + one masked sum."""
        caps = validated_capacities(capacities)
        totals, todo = _split_cached(self._r_cache, caps)
        if todo.size == 0:
            return totals
        kmax = self._fixed.k_max_batch(caps[todo])
        live = kmax >= max(1, self._load.support_min)
        if np.any(live):
            totals[todo[live]] = self._reservation_totals(
                caps[todo[live]], kmax[live]
            )
        for c, total in zip(caps[todo].tolist(), totals[todo].tolist()):
            self._r_cache.put(c, total)
        return totals

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B = V_B / k_bar`` over a capacity grid."""
        return self.total_best_effort_batch(capacities) / self._kbar

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R = V_R / k_bar`` over a capacity grid."""
        return self.total_reservation_batch(capacities) / self._kbar

    def _gap_probes(self, capacities) -> np.ndarray:
        """``B`` at the gap solver's probes, bypassing the LRU.

        Each probe is evaluated once per solve, so caching it buys
        nothing and would evict the sweep's reusable entries.
        """
        return self.total_best_effort_batch(capacities, cache=False) / self._kbar

    # The scalar views and gaps of :class:`CapacityModel`, bound in
    # this class body: perfbench's traced runs wrap them through
    # ``VariableLoadModel.__dict__``.
    total_best_effort = CapacityModel.total_best_effort
    total_reservation = CapacityModel.total_reservation
    performance_gap = CapacityModel.performance_gap
    bandwidth_gap = CapacityModel.bandwidth_gap

    # ------------------------------------------------------------------
    # the paper's reported quantities
    # ------------------------------------------------------------------

    def overload_probability(self, capacity: float) -> float:
        """Probability the offered load exceeds the admission threshold."""
        kmax = self.k_max(capacity)
        if kmax < 1:
            return 1.0
        return self._load.sf(kmax)

    def blocking_fraction(self, capacity: float) -> float:
        """Expected fraction of flows denied a reservation.

        ``theta(C) = sum_{k>k_max} P(k) (k - k_max) / k_bar`` — the
        flow-weighted blocking rate (:func:`blocked_flows` over
        ``k_bar``), the quantity the retrying extension balances.
        """
        return blocked_flows(self._load, self.k_max(capacity)) / self._kbar

    def capacity_for_best_effort(self, target: float) -> float:
        """Smallest capacity with ``B(C) >= target`` (inverse planning).

        The operator's question in the provisioning debate: how much
        bandwidth buys a given service level *without* reservations?
        ``target`` must be in ``(0, 1)``.
        """
        if not 0.0 < target < 1.0:
            raise ValueError(f"target utility must be in (0, 1), got {target!r}")
        return invert_monotone(
            self.best_effort,
            target,
            0.0,
            max(2.0 * self._kbar, 1.0),
            increasing=True,
            upper_limit=self.gap_limit,
            label=f"capacity for B = {target}",
        )

    def capacity_for_reservation(self, target: float) -> float:
        """Smallest capacity with ``R(C) >= target``."""
        if not 0.0 < target < 1.0:
            raise ValueError(f"target utility must be in (0, 1), got {target!r}")
        return invert_monotone(
            self.reservation,
            target,
            0.0,
            max(2.0 * self._kbar, 1.0),
            increasing=True,
            upper_limit=self.gap_limit,
            label=f"capacity for R = {target}",
        )
