"""Shared series tails.

The discrete variable-load model sums ``P(k) * k * pi(C/k)`` over the
load's mass window.  For Poisson and geometric loads the terms die
fast; for the algebraic load they die like ``k**-(z+1)`` and a naive
truncation at a fixed K either wastes work or silently loses tail mass.

The shared-table machinery (:func:`shared_moment_tail_table`,
:func:`power_series_tail`) replaces the *deep* part of those sums with a
polynomial identity: for a utility with Maclaurin coefficients ``a_j``,

    sum_{k >= n} P(k) k pi(C/k) = sum_j a_j C**j S_j(n)

where ``S_j(n) = sum_{k >= n} k**(1-j) P(k)`` depends only on the load
and the split point — never on the capacity.  One memoised table per
``(load, n)`` therefore serves every capacity of every sweep, which is
what lets the heavy-tailed batch paths stop paying for their tails per
point (and per Chandrupatla iteration inside root-level sweeps).
"""

from __future__ import annotations

import math

import numpy as np

from repro.caching import BoundedCache

#: Degree of the shared Maclaurin/moment-tail machinery.  96 terms of
#: the adaptive utility's series reach machine precision for arguments
#: up to ~0.45 and keep the *certified* remainder bound small enough
#: that bandwidth-gap solver probes (capacities up to ~2x the sweep
#: grid) usually stay at the lowest series level — halving their dense
#: heads.  The load tables are cheap and built once, so one fixed
#: degree keeps every cache key simple.
TAIL_DEGREE = 96

#: Process-wide memo of load moment-tail tables keyed by
#: ``(load, level, degree)``.  Loads hash by repr (value semantics), so
#: equal distributions share tables across model instances and sweeps.
#: Each entry is ~400 bytes; 512 of them is generous for any workload.
_TAIL_TABLES: BoundedCache = BoundedCache(maxsize=512)

#: Sentinel distinguishing "memoised None" (load cannot build a table at
#: this level) from a cache miss — BoundedCache.get's default is None.
_MISSING = object()


def shared_moment_tail_table(load, level: int, degree: int = TAIL_DEGREE):
    """Memoised ``load.moment_tail_table(level, degree)``.

    Returns the cached ``numpy`` coefficient vector ``S_j(level)`` for
    ``j = 0..degree``, or ``None`` when the load reports it cannot build
    one (that outcome is memoised too, so callers probing an infeasible
    level pay for the discovery once).  The caller must treat the table
    as read-only — it is shared across every model holding an equal
    load.
    """
    key = (load, int(level), int(degree))
    cached = _TAIL_TABLES.get(key, _MISSING)
    if cached is not _MISSING:
        return cached
    table = load.moment_tail_table(int(level), int(degree))
    _TAIL_TABLES.put(key, table)
    return table


def power_series_tail(
    coefficients: np.ndarray, moment_tails: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """Evaluate ``sum_j a_j S_j C**j`` for a whole capacity grid.

    ``coefficients`` are the utility's Maclaurin coefficients ``a_j``,
    ``moment_tails`` the load's ``S_j(n)`` table at the chosen split
    point, and the contraction ``d_j = a_j S_j`` collapses the 2-D sum
    into ``sum_j d_j C**j`` — O(degree * len(C)) with no per-capacity
    series work at all.  The powers come from one C-level cumulative
    product plus a matrix-vector product rather than a Horner loop:
    gap solvers call this on small grids every iteration, where a
    ~100-step Python loop of tiny numpy ops would dominate the cost.
    """
    weights = np.asarray(coefficients, dtype=float) * np.asarray(
        moment_tails, dtype=float
    )
    caps = np.asarray(capacities, dtype=float)
    flat = np.atleast_1d(caps)
    if weights.size == 1 or flat.size == 0:
        return np.full(caps.shape, weights[0] if weights.size else 0.0)
    top = float(np.max(flat))
    if top > 1.0 and (weights.size - 1) * math.log2(top) > 1000.0:
        # the raw power ladder would overflow (C**96 is inf past
        # C ~ 1600) even though the *weighted* terms are tiny for any
        # capacity the certified remainder bound admits.  Fold the
        # scale into the weights through exact ldexp arithmetic and
        # evaluate in powers of C/top <= 1 instead.
        exps = np.arange(weights.size, dtype=float) * math.log2(top)
        whole = np.floor(exps)
        weights = np.ldexp(weights * np.exp2(exps - whole), whole.astype(np.int64))
        flat = flat / top
    powers = np.multiply.accumulate(
        np.broadcast_to(flat, (weights.size - 1, flat.size)), axis=0
    )  # row j holds caps**(j+1)
    out = weights[0] + powers.T @ weights[1:]
    return out.reshape(caps.shape)
