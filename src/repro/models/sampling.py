"""The sampling extension — Section 5.1 of the paper.

The basic model scores a flow at a single load level.  In reality the
load fluctuates during a flow's lifetime, and perceived quality tracks
the *worst* episode more than the average.  The extension: a flow
samples the census ``S`` times, each draw iid from the tagged-flow
(size-biased) view ``Q(k) = k P(k) / k_bar``, and its performance is
evaluated at the **maximum** of those samples.

Best-effort: utility is ``E[pi(C / max of S draws from Q)]``.

Reservations: the admission decision uses the *first* sample ``k1`` —
a flow arriving into census ``k1 > k_max`` is admitted with probability
``k_max / k1`` (only ``k_max`` of the ``k1`` contending flows hold
reservations).  Once admitted, every subsequent census the flow sees is
capped at ``k_max``, so its effective worst load is
``max(k1, min(k_max, k_2), ..., min(k_max, k_S)) <= k_max``.

Collapsing the order statistics gives a single pass over ``j``:

    R_S(C) = sum_{j < k_max} pi(C/j) [F(j)^S - F(j-1)^S]
           + pi(C/k_max) [F(k_max) - F(k_max - 1)^S]
           + pi(C/k_max) k_max P(K > k_max) / k_bar

with ``F`` the cdf of ``Q``.  Setting ``S = 1`` recovers the basic
model exactly (a property the tests exercise).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.loads.base import LoadDistribution
from repro.loads.weighted import SizeBiasedLoad
from repro.models.base import CapacityModel
from repro.models.fixed_load import validated_capacities
from repro.models.variable_load import VariableLoadModel
from repro.numerics.batch import share_weighted_sums
from repro.utility.base import UtilityFunction


class SamplingModel(CapacityModel):
    """Worst-of-``S``-samples performance model (paper Section 5.1).

    Parameters
    ----------
    load:
        Census distribution ``P(k)``.
    utility:
        Application utility ``pi(b)``.
    samples:
        Number of independent census samples per flow (``S >= 1``).
    tol:
        Absolute truncation tolerance for the best-effort sum.
    """

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        samples: int,
        *,
        tol: float = 1e-10,
        k_max_limit: Optional[int] = None,
    ):
        if samples < 1 or samples != int(samples):
            raise ValueError(f"samples must be a positive integer, got {samples!r}")
        self._load = load
        self._utility = utility
        self._samples = int(samples)
        self._tol = float(tol)
        self._base = VariableLoadModel(load, utility, k_max_limit=k_max_limit)
        self._biased = SizeBiasedLoad(load)
        self._kbar = load.mean

    @property
    def samples(self) -> int:
        """Number of census samples per flow."""
        return self._samples

    @property
    def mean_load(self) -> float:
        """``k_bar``: per-flow utilities times this are total utilities."""
        return self._kbar

    @property
    def base_model(self) -> VariableLoadModel:
        """The single-sample model this extends."""
        return self._base

    def k_max(self, capacity: float) -> int:
        """Admission threshold (same fixed-load optimum as the base)."""
        return self._base.k_max(capacity)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _cdf(self, top: int) -> np.ndarray:
        """``F(k)``, the cdf of ``Q``, for ``k = k_lo - 1 .. top``.

        Built from the base model's mass window and ``k P(k)`` terms:
        ``F`` starts at 0 just below ``k_lo``, where the window leaves
        out a negligible share of the first moment.
        """
        terms = self._base.census_terms(top + 1)
        cdf = np.concatenate(([0.0], np.cumsum(terms) / self._kbar))
        # guard against cumsum drift above 1
        np.clip(cdf, 0.0, 1.0, out=cdf)
        return cdf

    def _sf_q_pow(self, n: int) -> float:
        """``P(max of S draws > n)`` with full tail precision."""
        sf1 = self._biased.sf(n)
        if sf1 > 1e-8:
            return 1.0 - (1.0 - sf1) ** self._samples
        s = float(self._samples)
        return s * sf1 - 0.5 * s * (s - 1.0) * sf1 * sf1

    def _truncation_points(self, caps: np.ndarray) -> np.ndarray:
        """Per-capacity N with ``pi(C/N) * P(max >= N) < tol``.

        The sums stop before ``N``, on the levels ``k_lo + 1024 * 2^j``
        past the window's left edge, and never inside a finite window:
        a level that clears ``tol`` there would still leave out up to
        ``tol`` of ``B_S``, more than the gap ``R_S - B_S`` can carry.
        The max-of-``S`` survival is capacity-independent, so each
        level costs one scalar call regardless of grid size.
        """
        k_lo, k_hi = self._base.window
        out = np.full(caps.size, -1, dtype=np.int64)
        open_ = np.ones(caps.size, dtype=bool)
        span = 1024
        while np.any(open_):
            n = k_lo + span
            sfp = self._sf_q_pow(n - 1)
            vals = np.asarray(self._utility(caps[open_] / n), dtype=float)
            done = np.minimum(1.0, vals) * sfp < self._tol
            sel = np.flatnonzero(open_)[done]
            out[sel] = n
            open_[sel] = False
            if np.any(open_) and span > 1 << 26:
                bad = float(caps[np.flatnonzero(open_)[0]])
                raise ConvergenceError(
                    f"sampling-model truncation exceeded 2^26 terms at C={bad}; "
                    "loosen tol or reduce the capacity range"
                )
            span <<= 1
        if math.isfinite(k_hi):
            np.maximum(out, k_hi + 1, out=out)
        return out

    # ------------------------------------------------------------------
    # batch evaluation (whole-grid sweeps)
    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B_S(C) = E[pi(C / max_S)]`` over a capacity grid.

        Already a per-flow average (the size-biased census *is* the
        tagged-flow view), so no ``k_bar`` normalisation is applied.
        The max-of-``S`` pmf weights depend only on ``k``, so each
        truncation group runs as one chunked matrix product.
        """
        caps = validated_capacities(capacities)
        totals = np.zeros(caps.size)
        live = np.flatnonzero(caps > 0.0)
        if live.size == 0:
            return totals
        k_lo = self._base.window[0]
        points = self._truncation_points(caps[live])
        for n in np.unique(points).tolist():
            idx = live[points == n]
            weights = np.diff(self._cdf(n - 1) ** self._samples)
            totals[idx] = share_weighted_sums(
                caps[idx], weights, self._utility, k_start=k_lo
            )
        return totals

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R_S`` over a capacity grid: batch ``k_max`` + one masked sum.

        Admission uses the first sample; admitted flows see every later
        census capped at ``k_max`` (see the module docstring).
        """
        caps = validated_capacities(capacities)
        totals = np.zeros(caps.size)
        pos = np.flatnonzero(caps > 0.0)
        if pos.size == 0:
            return totals
        kmax = self._base.k_max_batch(caps[pos])
        floor = max(1, self._load.support_min)
        live = kmax >= floor
        if not np.any(live):
            return totals
        idx = pos[live]
        sub_caps = caps[idx]
        sub_kmax = kmax[live]
        k_lo, k_hi = self._base.window
        top = max(k_lo - 1, min(int(sub_kmax.max()), k_hi))
        cdf = self._cdf(top)
        cdf_pow = cdf**self._samples
        # below-threshold worst loads: H(j) = F(j)^S for j < kmax
        inner = share_weighted_sums(
            sub_caps,
            np.diff(cdf_pow),
            self._utility,
            k_start=k_lo,
            kmax=sub_kmax - 1,
        )
        # worst load exactly kmax (admitted with first sample <= kmax);
        # F(j) sits at cdf[j - k_lo + 1], clipped into the window
        at = np.clip(sub_kmax - k_lo + 1, 0, top - k_lo + 1)
        before = np.clip(sub_kmax - k_lo, 0, top - k_lo + 1)
        at_cap = cdf[at] - cdf_pow[before]
        # overload-admitted flows (first sample k1 > kmax, prob kmax/k1):
        # sum_{k>kmax} Q(k) kmax / k = kmax * P(K > kmax) / k_bar
        over = (
            sub_kmax
            * np.asarray(self._load.sf_array(sub_kmax), dtype=float)
            / self._kbar
        )
        pi_cap = np.asarray(self._utility(sub_caps / sub_kmax), dtype=float)
        totals[idx] = inner + (at_cap + over) * pi_cap
        return totals
