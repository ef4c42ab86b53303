"""Array-in/array-out batch numerics for whole-grid sweeps.

Every figure in the paper is a sweep: ``delta(C)`` and ``Delta(C)``
over a capacity grid, ``gamma(p)`` over a price grid.  This module
solves a *vector of independent scalar problems* in a handful of
numpy calls; the one-problem forms in :mod:`repro.numerics.solvers`
are one-element views of it, so a single solve and a 512-point sweep
run the same iteration:

- :func:`find_roots` — bracketed root finding (bisection-safeguarded
  inverse-quadratic interpolation, Chandrupatla's algorithm — the same
  convergence class as Brent) over element-wise independent equations,
  with a per-element convergence mask,
- :func:`expand_brackets_upward` — vectorised geometric bracket growth,
- :func:`invert_monotone_batch` — ``func(x_i) = target_i`` for a
  monotone ``func``,
- :func:`share_weighted_sums` — the truncated-series kernel behind the
  discrete-model totals ``sum_k w_k * pi(C_i / k)``, chunked so a
  512 x 4M grid never materialises, and evaluated into per-thread
  workspace buffers reused across chunks and calls.

Continuum integrals have their own batched kernel,
:func:`repro.numerics.quadrature.integrate_rows`: one adaptive
Gauss–Kronrod rule over a whole capacity grid, graded toward ``u = 0``
where the Pareto integrands behave like ``u**(z - 2)``.

Elements that fail are *flagged in the mask*, never returned silently:
no sign change, a NaN function value (also marked ``undefined``) or
the iteration cap.  :meth:`BatchRootResult.checked_root` turns a
flagged element into the scalar error contract — the exception or
warning a one-element solve raises.

With :mod:`repro.obs` enabled each batch call meters
``batch.solve.calls`` / ``points`` / ``converged`` / ``failures`` /
``iterations`` / ``evaluations`` plus ``batch.series.*``; disabled,
the cost is one flag check per call.
"""

from __future__ import annotations

import math
import threading
import warnings
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import BracketError, ConvergenceError, ConvergenceWarning

#: Default absolute tolerance on the root location.
XTOL = 1e-12

#: Default relative tolerance on the root location.
RTOL = 1e-12

#: Growth factor for vectorised bracket expansion.
GROWTH = 2.0

#: Cap on vectorised expansion steps.
MAX_EXPAND_STEPS = 200

#: Iteration cap for :func:`find_roots`.  Chandrupatla falls back to
#: bisection at worst, so ~60 iterations resolve any double-precision
#: bracket; the default leaves comfortable headroom.
MAX_ITERATIONS = 128

#: Largest number of matrix elements :func:`share_weighted_sums` will
#: materialise at once (elements, not bytes; 2^17 doubles = 1 MiB).
#: Each utility evaluation streams several same-sized temporaries, so
#: keeping the chunk cache-resident beats larger chunks by ~4x on
#: million-term heavy-tailed series.
DEFAULT_CHUNK_ELEMENTS = 1 << 17


class BatchRootResult:
    """Roots and per-element diagnostics of one vectorised solve.

    Attributes
    ----------
    roots:
        Root estimates, one per problem.  Elements whose bracket never
        contained a sign change, or whose function returned NaN, are
        ``nan``; elements that ran out of iterations hold the best
        estimate found (and are flagged).
    converged:
        Boolean mask — ``True`` where the root met the tolerance.
    residuals:
        ``f(root)`` per element (``nan`` where no bracket existed).
    iterations:
        Per-element iteration counts.
    function_evaluations:
        Total scalar evaluations across the batch (every element of
        every vector call counts once).
    bracket_expanded:
        Mask of elements whose bracket had to be grown.
    undefined:
        Mask of elements whose function returned NaN, or whose bracket
        left the finite reals.  Such an element has no usable sign, so
        it is flagged apart from a bracket with no sign change.
    """

    __slots__ = (
        "label",
        "roots",
        "converged",
        "residuals",
        "iterations",
        "function_evaluations",
        "bracket_expanded",
        "undefined",
    )

    def __init__(
        self,
        label: str,
        roots: np.ndarray,
        converged: np.ndarray,
        residuals: np.ndarray,
        iterations: np.ndarray,
        function_evaluations: int,
        bracket_expanded: np.ndarray,
        undefined: np.ndarray,
    ):
        self.label = label
        self.roots = roots
        self.converged = converged
        self.residuals = residuals
        self.iterations = iterations
        self.function_evaluations = function_evaluations
        self.bracket_expanded = bracket_expanded
        self.undefined = undefined

    @property
    def all_converged(self) -> bool:
        """True when every element met the tolerance."""
        return bool(np.all(self.converged))

    @property
    def size(self) -> int:
        """Number of independent problems in the batch."""
        return int(self.roots.size)

    def checked_root(self, i: int, where: str) -> float:
        """Element ``i``'s root under the scalar error contract.

        A converged root is returned as is.  A flagged element raises
        :class:`~repro.errors.ConvergenceError` when its function
        returned NaN and :class:`~repro.errors.BracketError` when its
        bracket held no sign change; one that hit the iteration cap
        returns its best root with a
        :class:`~repro.errors.ConvergenceWarning`.  ``where`` locates
        the problem in the message (e.g. ``"at C=4.0"``).
        """
        root = float(self.roots[i])
        if self.converged[i]:
            return root
        if self.undefined[i]:
            raise ConvergenceError(f"{self.label}: function value is NaN {where}")
        if math.isnan(root):
            raise BracketError(f"{self.label}: no sign change {where}")
        warnings.warn(
            f"{self.label}: stopped after {int(self.iterations[i])} iterations "
            f"without meeting tolerance {where}; returning the best root found",
            ConvergenceWarning,
            stacklevel=3,
        )
        return root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchRootResult(label={self.label!r}, size={self.size}, "
            f"converged={int(np.sum(self.converged))}/{self.size}, "
            f"evaluations={self.function_evaluations})"
        )


def _meter_solve(result: BatchRootResult) -> None:
    if not obs.enabled():
        return
    obs.counter("batch.solve.calls").inc()
    obs.counter("batch.solve.points").inc(result.size)
    hits = int(np.sum(result.converged))
    obs.counter("batch.solve.converged").inc(hits)
    if hits < result.size:
        obs.counter("batch.solve.failures").inc(result.size - hits)
    obs.counter("batch.solve.iterations").inc(int(np.sum(result.iterations)))
    obs.counter("batch.solve.evaluations").inc(result.function_evaluations)


def _as_batch(*arrays) -> Tuple[np.ndarray, ...]:
    """Broadcast the inputs to one flat float vector each."""
    broadcast = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in arrays])
    return tuple(np.array(b, dtype=float).ravel() for b in broadcast)


def _same_sign(f_a: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """True where both values are nonzero and share a sign (never for NaN)."""
    return ((f_a < 0.0) & (f_b < 0.0)) | ((f_a > 0.0) & (f_b > 0.0))


def expand_brackets_upward(
    func: Callable[..., np.ndarray],
    lo: np.ndarray,
    f_lo: np.ndarray,
    hi: np.ndarray,
    f_hi: np.ndarray,
    *,
    args: Sequence[np.ndarray] = (),
    growth: float = GROWTH,
    max_steps: int = MAX_EXPAND_STEPS,
    upper_limit: float = float("inf"),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Grow ``hi`` geometrically per element until the sign changes.

    For every element whose ``[lo, hi]`` interval does not contain a
    sign change, the right endpoint moves right by a geometrically
    growing span (never beyond ``upper_limit``).  Elements that exhaust
    the limit are reported in the failure mask instead of raising, so
    one hopeless element cannot abort a 512-point sweep.  An element
    whose function returns NaN stops where it is, with the NaN left in
    ``f_hi`` for the caller to flag; it does not count as failed.

    ``args`` are per-element parameter vectors sliced alongside the
    endpoints on every trial evaluation (see :func:`find_roots`).

    Returns ``(hi, f_hi, expanded, failed, evaluations)`` where
    ``expanded`` marks elements whose endpoint moved and ``failed``
    marks elements with no sign change within the limit.
    """
    hi = hi.copy()
    f_hi = f_hi.copy()
    span = hi - lo
    need = _same_sign(f_lo, f_hi)
    expanded = np.zeros_like(need)
    evaluations = 0
    for _ in range(max_steps):
        need &= hi < upper_limit
        if not np.any(need):
            break
        hi[need] = np.minimum(hi[need] + span[need], upper_limit)
        span[need] *= growth
        expanded |= need
        idx = np.flatnonzero(need)
        trial = np.asarray(func(hi[idx], *[a[idx] for a in args]), dtype=float)
        evaluations += idx.size
        f_hi[idx] = trial
        need[idx[~_same_sign(f_lo[idx], trial)]] = False
    failed = _same_sign(f_lo, f_hi)
    return hi, f_hi, expanded, failed, evaluations


@obs.timed("batch.find_roots")
def find_roots(
    func: Callable[..., np.ndarray],
    lo,
    hi,
    *,
    args: Sequence = (),
    xtol: float = XTOL,
    rtol: float = RTOL,
    expand: bool = False,
    upper_limit: float = float("inf"),
    max_iterations: int = MAX_ITERATIONS,
    label: str = "batch root",
) -> BatchRootResult:
    """Find a root of every element-wise independent equation at once.

    Parameters
    ----------
    func:
        Vectorised function: ``func(x, *params)[i]`` must depend only
        on ``x[i]`` (and ``params[j][i]``).  It is called on
        *compressed* vectors containing only the still-active elements,
        so converged problems stop costing evaluations immediately.
    lo, hi:
        Bracket endpoints (scalars or arrays, broadcast together),
        ``lo <= hi`` element-wise.  Elements whose bracket holds no
        sign change are expanded geometrically when ``expand`` is true,
        else flagged.
    args:
        Per-element parameter vectors (broadcast with the endpoints)
        compressed alongside ``x`` and passed to ``func`` — this is how
        a family like ``B(x) - target_i`` threads its targets through
        the active-set compression.
    xtol, rtol:
        Convergence is declared where the bracket has shrunk below
        ``xtol + rtol * |root|``.
    label:
        Name used in diagnostics.

    Returns
    -------
    BatchRootResult
        Roots plus per-element convergence mask and diagnostics.
        Elements that never bracketed a sign change come back ``nan``
        with ``converged=False``; so do elements whose function
        returned NaN, which are also marked ``undefined``.  Neither is
        ever a finite wrong answer.

    Raises
    ------
    ValueError
        If ``lo > hi`` for any element.

    Notes
    -----
    The iteration is Chandrupatla's algorithm: inverse-quadratic
    interpolation accepted only when the interpolant is well behaved,
    bisection otherwise.  Worst case it *is* bisection, so convergence
    is guaranteed on any valid bracket; typical smooth problems
    converge superlinearly like Brent's method.
    """
    vectors = _as_batch(lo, hi, *args)
    lo_v, hi_v = vectors[0], vectors[1]
    inverted = lo_v > hi_v
    if np.any(inverted):
        i = int(np.argmax(inverted))
        raise ValueError(
            f"{label}: need lo <= hi, got lo={float(lo_v[i])!r} hi={float(hi_v[i])!r}"
        )
    params = vectors[2:]
    n = lo_v.size
    roots = np.full(n, math.nan)
    converged = np.zeros(n, dtype=bool)
    residuals = np.full(n, math.nan)
    iterations = np.zeros(n, dtype=np.int64)

    f_lo = np.asarray(func(lo_v, *params), dtype=float)
    f_hi = np.asarray(func(hi_v, *params), dtype=float)
    evaluations = 2 * n

    expanded = np.zeros(n, dtype=bool)
    failed = _same_sign(f_lo, f_hi)
    if expand and np.any(failed):
        hi_v, f_hi, expanded, failed, extra = expand_brackets_upward(
            func, lo_v, f_lo, hi_v, f_hi, args=params, upper_limit=upper_limit
        )
        evaluations += extra

    # exact hits at the endpoints
    hit_lo = f_lo == 0.0
    hit_hi = (f_hi == 0.0) & ~hit_lo
    for mask, endpoint in ((hit_lo, lo_v), (hit_hi, hi_v)):
        roots[mask] = endpoint[mask]
        residuals[mask] = 0.0
        converged[mask] = True
    undefined = (np.isnan(f_lo) | np.isnan(f_hi)) & ~(hit_lo | hit_hi)

    active = np.flatnonzero(~(hit_lo | hit_hi | failed | undefined))
    if active.size:
        # Chandrupatla state, kept compressed to the active subset: a
        # is the newest iterate, b the opposite bracket end, c the
        # previous point on a's side of the root.
        b = lo_v[active]
        fb = f_lo[active]
        a = hi_v[active]
        fa = f_hi[active]
        c = a.copy()
        fc = fa.copy()
        t = np.full(active.size, 0.5)
        for _ in range(max_iterations):
            xt = a + t * (b - a)
            ft = np.asarray(func(xt, *[p[active] for p in params]), dtype=float)
            evaluations += int(active.size)
            iterations[active] += 1

            same = np.signbit(ft) == np.signbit(fa)
            c = np.where(same, a, b)
            fc = np.where(same, fa, fb)
            b = np.where(same, b, a)
            fb = np.where(same, fb, fa)
            a, fa = xt, ft

            a_best = np.abs(fa) < np.abs(fb)
            xm = np.where(a_best, a, b)
            fm = np.where(a_best, fa, fb)

            span = np.abs(b - a)
            tol = xtol + rtol * np.abs(xm)
            with np.errstate(divide="ignore", invalid="ignore"):
                tlim = 0.5 * tol / span
            # a NaN value or a non-finite bracket leaves no sign to follow
            lost = np.isnan(ft) | ~np.isfinite(span)
            done = (tlim >= 0.5) | (fm == 0.0) | lost

            if np.any(done):
                solved = done & ~lost
                roots[active[solved]] = xm[solved]
                residuals[active[solved]] = fm[solved]
                converged[active[solved]] = True
                undefined[active[lost]] = True
                keep = ~done
                active = active[keep]
                if not active.size:
                    break
                a, fa = a[keep], fa[keep]
                b, fb = b[keep], fb[keep]
                c, fc = c[keep], fc[keep]
                xm = xm[keep]
                tlim = tlim[keep]

            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (a - b) / (c - b)
                phi = (fa - fb) / (fc - fb)
                use_iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                t_iqi = (fa / (fb - fa)) * (fc / (fb - fc)) + (
                    (c - a) / (b - a)
                ) * (fa / (fc - fa)) * (fb / (fc - fb))
            t = np.where(use_iqi & np.isfinite(t_iqi), t_iqi, 0.5)
            t = np.clip(t, tlim, 1.0 - tlim)

        if active.size:
            # out of iterations: best estimate, flagged not converged
            a_best = np.abs(fa) < np.abs(fb)
            roots[active] = np.where(a_best, a, b)
            residuals[active] = np.where(a_best, fa, fb)

    result = BatchRootResult(
        label,
        roots,
        converged,
        residuals,
        iterations,
        evaluations,
        bracket_expanded=expanded,
        undefined=undefined,
    )
    _meter_solve(result)
    return result


def invert_monotone_batch(
    func: Callable[[np.ndarray], np.ndarray],
    targets,
    lo,
    hi,
    *,
    increasing: bool = True,
    upper_limit: float = float("inf"),
    xtol: float = XTOL,
    rtol: float = RTOL,
    label: str = "batch inverse",
    clip: Optional[str] = None,
) -> BatchRootResult:
    """Solve ``func(x_i) = targets_i`` for a monotone vectorised ``func``.

    This is the workhorse behind the bandwidth gap (invert ``B`` at the
    reservation utilities) and the equalizing price ratio (invert
    ``W_R`` at the best-effort welfare); the sweep form inverts 512
    targets in one call.  ``increasing`` orients the residual so that
    brackets expand upward geometrically, to ``upper_limit``.

    A target already met or passed at ``lo`` needs no solve: it returns
    ``lo`` when met exactly or under ``clip='lo'`` (e.g. a bandwidth
    gap of exactly zero when ``R(C) <= B(C)`` by rounding), and is
    flagged otherwise.  A target still out of reach at ``upper_limit``
    returns ``upper_limit`` (``hi`` when the limit is infinite) under
    ``clip='hi'``, and is flagged otherwise.
    """
    targets_v, lo_v, hi_v = _as_batch(targets, lo, hi)

    if increasing:
        def residual(x: np.ndarray, t: np.ndarray) -> np.ndarray:
            return np.asarray(func(x), dtype=float) - t
    else:
        def residual(x: np.ndarray, t: np.ndarray) -> np.ndarray:
            return t - np.asarray(func(x), dtype=float)

    n = lo_v.size
    r_lo = residual(lo_v, targets_v)
    at_lo = r_lo >= 0.0
    met = at_lo & ((r_lo == 0.0) | (clip == "lo"))
    result = BatchRootResult(
        label,
        np.where(met, lo_v, math.nan),
        met,
        np.where(at_lo, r_lo, math.nan),
        np.zeros(n, dtype=np.int64),
        n,
        bracket_expanded=np.zeros(n, dtype=bool),
        undefined=np.zeros(n, dtype=bool),
    )
    todo = np.flatnonzero(~at_lo)
    if todo.size:
        solved = find_roots(
            residual,
            lo_v[todo],
            hi_v[todo],
            args=(targets_v[todo],),
            xtol=xtol,
            rtol=rtol,
            expand=True,
            upper_limit=upper_limit,
            label=label,
        )
        result.roots[todo] = solved.roots
        result.converged[todo] = solved.converged
        result.residuals[todo] = solved.residuals
        result.iterations[todo] = solved.iterations
        result.bracket_expanded[todo] = solved.bracket_expanded
        result.undefined[todo] = solved.undefined
        result.function_evaluations += solved.function_evaluations

    if clip == "hi":
        missed = np.isnan(result.roots) & ~at_lo & ~result.undefined
        result.roots[missed] = (
            upper_limit if math.isfinite(upper_limit) else hi_v[missed]
        )
        result.converged[missed] = True
    return result


#: Each thread's reusable (shares, values) buffers for
#: :func:`share_weighted_sums`, ``DEFAULT_CHUNK_ELEMENTS`` each.
_WORKSPACE = threading.local()


def _take_workspace(size: int) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Two float buffers of at least ``size`` elements, and whether they persist.

    A need within ``DEFAULT_CHUNK_ELEMENTS`` takes this thread's buffers
    (allocated on first use; a nested call finds none and gets fresh
    ones), so chunks and calls stop faulting in fresh pages; a larger
    need is allocated for the one call.
    """
    if size > DEFAULT_CHUNK_ELEMENTS:
        return np.empty(size), np.empty(size), False
    held = getattr(_WORKSPACE, "buffers", None)
    _WORKSPACE.buffers = None
    if held is None:
        held = (np.empty(DEFAULT_CHUNK_ELEMENTS), np.empty(DEFAULT_CHUNK_ELEMENTS))
    return held[0], held[1], True


def _copy_values(value_fn: Callable[[np.ndarray], np.ndarray]):
    """``values_into`` for a plain callable: its result copied into ``out``."""

    def into(b: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, np.asarray(value_fn(b), dtype=float))
        return out

    return into


@obs.timed("batch.share_weighted_sums")
def share_weighted_sums(
    capacities,
    weights: np.ndarray,
    value_fn: Callable[[np.ndarray], np.ndarray],
    *,
    k_start: int = 1,
    kmax: Optional[np.ndarray] = None,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> np.ndarray:
    """``S_i = sum_j weights[j] * value_fn(C_i / (k_start + j))`` for a whole grid.

    The truncated-series kernel of the discrete variable-load model,
    evaluated as chunked outer products: the ``(capacity, k)`` matrix
    is materialised at most ``chunk_elements`` elements at a time, so a
    heavy-tailed load that truncates at millions of terms never
    allocates a multi-gigabyte intermediate.  Shares and values are
    written into this thread's workspace (:func:`_take_workspace`),
    reused across chunks and calls.

    Parameters
    ----------
    capacities:
        Capacity grid (1-D).
    weights:
        Series weights lined up with ``k_start``: ``weights[j]``
        multiplies the ``pi(C/k)`` term of ``k = k_start + j``.
        Typically ``k * P(k)`` over a load's mass window, or
        max-order-statistic increments.
    value_fn:
        A utility (its ``values_into`` writes straight into the
        workspace) or any vectorised ``pi`` over a 2-D array.
    k_start:
        The flow count of ``weights[0]``.
    kmax:
        Optional per-capacity inclusive upper index: terms with
        ``k > kmax[i]`` contribute nothing to row ``i`` (the
        reservation model's admission cut).
    """
    caps = np.asarray(capacities, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    # terms whose weight is exactly 0.0 (underflowed pmf, k = 0)
    # contribute exactly nothing — skip the value_fn work for any
    # leading/trailing run of them
    nonzero = np.flatnonzero(weights)
    if nonzero.size == 0 or caps.size == 0:
        return np.zeros(caps.size)
    first, stop = int(nonzero[0]), int(nonzero[-1]) + 1
    kmax_col = None
    if kmax is not None:
        kmax_col = np.asarray(kmax, dtype=float).reshape(-1, 1)
    values_into = getattr(value_fn, "values_into", None) or _copy_values(value_fn)

    chunk = max(1, int(chunk_elements) // max(1, caps.size))
    totals = np.zeros(caps.size)
    elements = 0
    caps_col = caps.reshape(-1, 1)
    shares_buf, values_buf, persistent = _take_workspace(caps.size * min(chunk, stop - first))
    try:
        for start in range(first, stop, chunk):
            end = min(stop, start + chunk)
            ks = np.arange(k_start + start, k_start + end, dtype=float)
            shape = (caps.size, ks.size)
            shares = shares_buf[: caps.size * ks.size].reshape(shape)
            values = values_buf[: caps.size * ks.size].reshape(shape)
            values_into(np.divide(caps_col, ks, out=shares), values)
            if kmax_col is not None:
                # the admission mask as 1.0/0.0, in the spent shares
                values *= np.less_equal(ks, kmax_col, out=shares)
            totals += values @ weights[start:end]
            elements += values.size
    finally:
        if persistent:
            _WORKSPACE.buffers = (shares_buf, values_buf)
    if obs.enabled():
        obs.counter("batch.series.calls").inc()
        obs.counter("batch.series.elements").inc(elements)
    return totals
