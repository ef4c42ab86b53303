"""Quadrature for the continuum model: one batched Gauss–Kronrod kernel.

The continuum utilities are piecewise (rigid steps, piecewise-linear
adaptive), so blind adaptive quadrature over a semi-infinite interval
can miss the kinks.  :func:`integrate_rows` integrates a batch of rows
at once, each over its own ``[lo, hi]`` split at its own break points,
with the 21-point Gauss–Kronrod pair (G10/K21) applied to every panel
of every row in one vectorised integrand call.  ``hi = inf`` is mapped
onto ``u in (0, 1]`` through ``k = cut/u`` with ``cut = max(lo, 1)``
(the head ``[lo, cut]`` stays in ``k``).  The Pareto tails behave like
``u**(z - 2)`` as ``u -> 0``, so the rule must be graded toward that
end: each round bisects every unfinished row's worst panel, which
halves the panel at ``u = 0`` until its error estimate fits.

A row is finished when its summed error estimate (QUADPACK's K21/G10
estimate) is at most ``max(tol, tol * |I|)``; a row still above that
after :data:`MAX_PANELS` panels is accepted only while its estimate
stays within ``max(100 tol, 1e-7 max(1, |I|))``, else
:class:`~repro.errors.ConvergenceError` names the label.  Every
decision a row takes depends on its own panels alone, and its panels
are summed in their own order, so a row's value is the same bit for
bit in any batch.  :func:`integrate` is the one-row view.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConvergenceError

#: Default target absolute error for a single integral.
QUAD_TOL = 1e-11

#: Panels one row may be split into before its estimate is judged.
MAX_PANELS = 200

# 21-point Kronrod abscissae on [-1, 1] (ascending) with their weights,
# and the 10-point Gauss weights on the same nodes (zero at the
# Kronrod-only ones); QUADPACK's dqk21 constants.
_HALF_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980040086,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_CENTER_KRONROD = 0.149445554002916905664936468389821
_GAUSS = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.concatenate([-_HALF_NODES, [0.0], _HALF_NODES[::-1]])
_W_KRONROD = np.concatenate([_HALF_KRONROD, [_CENTER_KRONROD], _HALF_KRONROD[::-1]])
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _GAUSS
_W_GAUSS[11:20:2] = _GAUSS[::-1]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panel_rule(func, a, b, row, cut):
    """K21 values and QUADPACK error estimates of panels ``[a, b]``.

    A panel with ``cut > 0`` lies in ``u``, where the integrand is
    ``f(cut/u) * cut/u**2``; the others lie in ``k`` itself.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = center[:, None] + half[:, None] * _NODES
    x = t.copy()
    jacobian = np.ones_like(t)
    mapped = np.flatnonzero(cut > 0.0)
    if mapped.size:
        u = t[mapped]
        scale = cut[mapped, None]
        # where cut/u**2 overflows (u * u at or near 0.0) the substituted
        # integrand vanishes: the density decays faster than k**2 grows
        with np.errstate(divide="ignore", over="ignore"):
            dxdu = scale / (u * u)
            under = ~np.isfinite(dxdu)
            x[mapped] = np.where(under, scale, scale / u)
            jacobian[mapped] = np.where(under, 0.0, dxdu)
    f = np.broadcast_to(np.asarray(func(x, row[:, None]), dtype=float), t.shape) * jacobian
    kronrod = (f * _W_KRONROD).sum(axis=1)
    gauss = (f * _W_GAUSS).sum(axis=1)
    width = np.abs(half)
    res_abs = (np.abs(f) * _W_KRONROD).sum(axis=1) * width
    res_asc = (np.abs(f - 0.5 * kronrod[:, None]) * _W_KRONROD).sum(axis=1) * width
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5)
    err = np.where((res_asc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(res_abs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * res_abs, err), err)
    return kronrod * half, err


def _initial_panels(lo: np.ndarray, hi: np.ndarray, points) -> tuple:
    """Each row's pieces between its break points, as ``(a, b, row, cut)``.

    A row with ``hi = inf`` keeps ``[lo, cut]`` in ``k``, ``cut =
    max(lo, 1)``, and maps the rest onto ``u in (0, 1]``, a break point
    ``p`` to ``cut/p``; ``cut = 0`` marks a panel in ``k``.
    """
    panels = []
    for i, (left, right) in enumerate(zip(lo.tolist(), hi.tolist())):
        given = points[i] if points is not None else ()
        inner = sorted({p for p in given if left < p < right and math.isfinite(p)})
        cut = right if math.isfinite(right) else max(left, 1.0)
        edges = [left, *(p for p in inner if p < cut), cut]
        panels += [(e0, e1, i, 0.0) for e0, e1 in zip(edges, edges[1:]) if e1 > e0]
        if not math.isfinite(right):
            edges = [0.0, *sorted(cut / p for p in inner if p > cut), 1.0]
            panels += [(e0, e1, i, cut) for e0, e1 in zip(edges, edges[1:]) if e1 > e0]
    a, b, rows, cuts = zip(*panels) if panels else ((), (), (), ())
    return (
        np.array(a, dtype=float),
        np.array(b, dtype=float),
        np.array(rows, dtype=np.int64),
        np.array(cuts, dtype=float),
    )


def integrate_rows(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    points: Optional[Sequence[Iterable[float]]] = None,
    tol: float = QUAD_TOL,
    label: str = "integral",
) -> np.ndarray:
    """``I[i] = int_{lo[i]}^{hi[i]} func(x, i) dx`` for every row ``i`` at once.

    Parameters
    ----------
    func:
        Vectorised integrand ``func(x, row)``: ``x`` is a 2-D array of
        abscissae, one panel per line, and ``row`` the matching column
        of row indices (broadcast against ``x``).
    lo, hi:
        Per-row limits (broadcast together); ``lo`` finite, ``hi`` may
        be ``inf``.
    points:
        One iterable of break points (kinks, discontinuities) per row;
        points outside ``(lo, hi)`` are ignored.
    """
    lo_v, hi_v = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    bad = ~(hi_v >= lo_v) | ~np.isfinite(lo_v)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{label}: need finite lo <= hi, got [{lo_v[i]}, {hi_v[i]}]")
    n = lo_v.size
    a, b, row, cut = _initial_panels(lo_v, hi_v, points)
    pieces = evaluations = a.size
    value, err = _panel_rule(func, a, b, row, cut) if pieces else (a.copy(), a.copy())
    while True:
        totals = np.bincount(row, weights=value, minlength=n)
        errors = np.bincount(row, weights=err, minlength=n)
        counts = np.bincount(row, minlength=n)
        target = np.maximum(tol, tol * np.abs(totals))
        open_rows = (errors > target) & (counts < MAX_PANELS)
        if not np.any(open_rows):
            break
        # each open row's worst panel (its first, should two tie)
        worst = np.full(n, -np.inf)
        np.maximum.at(worst, row, err)
        pick = np.flatnonzero((err == worst[row]) & open_rows[row])
        pick = pick[np.unique(row[pick], return_index=True)[1]]
        mid = 0.5 * (a[pick] + b[pick])
        new_a = np.concatenate([a[pick], mid])
        new_b = np.concatenate([mid, b[pick]])
        new_row = np.concatenate([row[pick], row[pick]])
        new_cut = np.concatenate([cut[pick], cut[pick]])
        new_value, new_err = _panel_rule(func, new_a, new_b, new_row, new_cut)
        evaluations += new_a.size
        # the left half takes the panel's place, the right half is appended
        k = pick.size
        a[pick], b[pick], value[pick], err[pick] = new_a[:k], new_b[:k], new_value[:k], new_err[:k]
        a = np.concatenate([a, new_a[k:]])
        b = np.concatenate([b, new_b[k:]])
        row = np.concatenate([row, new_row[k:]])
        cut = np.concatenate([cut, new_cut[k:]])
        value = np.concatenate([value, new_value[k:]])
        err = np.concatenate([err, new_err[k:]])
    # past the panel limit a row stands while its estimate stays within
    # max(100 tol, 1e-7 max(1, |I|)); a NaN fails every comparison
    accept = np.maximum(target, np.maximum(100.0 * tol, 1e-7 * np.maximum(1.0, np.abs(totals))))
    failed = ~(errors <= accept) | np.isnan(totals)
    if np.any(failed):
        i = int(np.argmax(failed))
        raise ConvergenceError(
            f"{label}: quadrature error {float(errors[i])!r} too large on "
            f"[{lo_v[i]}, {hi_v[i]}] after {int(np.sum(row == i))} panels"
        )
    if obs.enabled():
        obs.counter("quadrature.integrals").inc(int(np.sum(hi_v > lo_v)))
        obs.counter("quadrature.pieces").inc(pieces)
        obs.counter("quadrature.evaluations").inc(21 * evaluations)
    return totals


def integrate(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    points: Optional[Iterable[float]] = None,
    tol: float = QUAD_TOL,
    label: str = "integral",
) -> float:
    """Integrate a vectorised ``func`` over ``[lo, hi]`` (``hi`` may be ``inf``).

    The one-row view of :func:`integrate_rows`: ``func`` takes an array
    of abscissae and returns the integrand there.  ``points`` are
    interior break points (kinks / discontinuities); points outside
    ``(lo, hi)`` are ignored.
    """
    return float(
        integrate_rows(
            lambda x, row: func(x),
            lo,
            hi,
            points=None if points is None else [list(points)],
            tol=tol,
            label=label,
        )[0]
    )
