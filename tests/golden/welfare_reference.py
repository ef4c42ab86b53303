"""Dense-grid reference for the Section 4 welfare quantities.

An independent check on :mod:`repro.models.welfare`: it calls nothing
from the welfare module and no root finder.  It reads the models' total
utilities through ``total_best_effort_batch`` / ``total_reservation_batch``
on a dense capacity grid, takes the argmax there, and refines it by two
local re-grids around each argmax:

    W(p)     = max(0, max_C [V(C) - p C])
    p_hat(p) = max_C [V_R(C) - W_B(p)] / C      (W_R(p_hat) = W_B(p))
    gamma(p) = p_hat(p) / p

The second line is the definition ``W_R(p_hat) = W_B(p)`` rewritten:
``W_R(q) >= W_B(p)`` holds exactly when some capacity has
``V_R(C) - q C >= W_B(p)``, so the largest such ``q`` is the steepest
line from ``(0, W_B(p))`` to the curve ``V_R``.

Rigid utilities make ``V`` a step function with jumps at multiples of
``b_hat``; the grid is then those multiples and the answer is exact.
An argmax on the edge of the grid raises: the grid does not cover that
optimum.

Run as a script, it recomputes the F2-F4 gamma pins of
``tests/golden/figures.json`` at the paper's parameters and exits
nonzero if any pin is more than :data:`RTOL` from the reference:

    PYTHONPATH=src python tests/golden/welfare_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable

import numpy as np

from repro.utility.rigid import RigidUtility

#: Capacities evaluated per model call: consecutive grid points, so a
#: reservation chunk's masked sum runs to about its own thresholds.
CHUNK = 2048

#: Points of each local re-grid, and its half-width in steps of the
#: grid before it.
ZOOM = 2001
HALFWIDTH = 32

#: The golden pins, their largest allowed relative deviation from the
#: reference, and the reference grid's size for them.
GOLDEN = pathlib.Path(__file__).parent / "figures.json"
RTOL = 1e-9
POINTS = 120_000


def _evaluate(total_batch: Callable, caps: np.ndarray) -> np.ndarray:
    """``total_batch`` over any capacity array, in sorted chunks."""
    flat = caps.ravel()
    order = np.argsort(flat, kind="stable")
    out = np.empty(flat.size)
    for start in range(0, flat.size, CHUNK):
        idx = order[start : start + CHUNK]
        out[idx] = total_batch(flat[idx])
    return out.reshape(caps.shape)


def _maximise(total_batch, objective, caps, values, *, rounds):
    """Row-wise ``max_C objective(row, C, V(C))``: grid argmax, then re-grids.

    ``objective(C, V)`` takes ``(rows, n)`` arrays.  Each re-grid spans
    ``HALFWIDTH`` steps of the previous grid on both sides of its
    argmax with ``ZOOM`` points.  Returns ``(capacity, value)`` per row.
    Without re-grids (rigid jump points) the grid starts at the true
    lower bound, so only its upper edge is checked.
    """
    obj = objective(caps[None, :], values[None, :])
    rows = np.arange(obj.shape[0])
    i = np.argmax(obj, axis=1)
    best_c, best = caps[i], obj[rows, i]
    edge = ((i == 0) & (best > 0.0) & (rounds > 0)) | (i == caps.size - 1)
    if np.any(edge):
        raise ValueError(
            f"argmax on the grid edge at C={float(best_c[np.argmax(edge)])}; "
            f"widen [{caps[0]}, {caps[-1]}]"
        )
    lo = caps[np.maximum(i - HALFWIDTH, 0)]
    hi = caps[np.minimum(i + HALFWIDTH, caps.size - 1)]
    for _ in range(rounds):
        local = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, ZOOM)
        o = objective(local, _evaluate(total_batch, local))
        j = np.argmax(o, axis=1)
        better = o[rows, j] > best
        best_c = np.where(better, local[rows, j], best_c)
        best = np.where(better, o[rows, j], best)
        step = (hi - lo) / (ZOOM - 1)
        lo, hi = best_c - 2.0 * step, best_c + 2.0 * step
    return best_c, best


def dense_reference(model, prices, *, c_lo: float, c_hi: float, points: int = POINTS) -> dict:
    """Reference ``W_B``, ``W_R``, ``C_B``, ``C_R`` and ``gamma`` per price.

    ``model`` is a :class:`~repro.models.VariableLoadModel`.  The grid
    is ``points`` geometric capacities on ``[c_lo, c_hi]`` (every
    multiple of ``b_hat`` up to ``c_hi`` for a rigid utility).  Prices
    whose best-effort welfare is zero get ``gamma = nan``.
    """
    p = np.asarray(prices, dtype=float).ravel()
    utility = model.utility
    if isinstance(utility, RigidUtility):
        caps = utility.b_hat * np.arange(0.0, np.ceil(c_hi / utility.b_hat) + 1.0)
        rounds = 0
    else:
        caps = np.geomspace(c_lo, c_hi, points)
        rounds = 2
    out: dict = {"price": p}
    totals = {
        "best_effort": model.total_best_effort_batch,
        "reservation": model.total_reservation_batch,
    }
    values = {k: _evaluate(fn, caps) for k, fn in totals.items()}
    for key, fn in totals.items():
        c_star, w = _maximise(
            fn,
            lambda c, v: v - p[:, None] * c,
            caps,
            values[key],
            rounds=rounds,
        )
        out[f"welfare_{key}"] = np.maximum(w, 0.0)
        out[f"capacity_{key}"] = np.where(w > 0.0, c_star, 0.0)
    target = out["welfare_best_effort"]
    live = caps > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, p_hat = _maximise(
            totals["reservation"],
            lambda c, v: (v - target[:, None]) / c,
            caps[live],
            values["reservation"][live],
            rounds=rounds,
        )
    out["gamma"] = np.where(target > 0.0, p_hat / p, np.nan)
    return out


def check_golden_gamma() -> int:
    """Compare the F2-F4 gamma pins with the reference; print a table."""
    from repro.experiments.params import DEFAULT_CONFIG
    from repro.models import VariableLoadModel

    pins = json.loads(GOLDEN.read_text())
    cfg = DEFAULT_CONFIG
    worst = 0.0
    for figure in ("figure2", "figure3", "figure4"):
        entry = pins[figure]
        model = VariableLoadModel(cfg.load(entry["load"]), cfg.utility("adaptive"))
        ref = dense_reference(model, entry["price"], c_lo=cfg.kbar / 8.0, c_hi=64.0 * cfg.kbar)
        for price, pin, want in zip(entry["price"], entry["gamma"], ref["gamma"]):
            if pin is None:
                err = 0.0 if np.isnan(want) else np.inf
            else:
                err = abs(pin - want) / abs(want)
            worst = max(worst, err)
            flag = "ok" if err <= RTOL else "FAIL"
            print(f"{figure} p={price:.6g} pin={pin!r} ref={want!r} rel={err:.2e} {flag}")
    print(f"worst relative deviation {worst:.3e} (limit {RTOL:g})")
    return 0 if worst <= RTOL else 1


if __name__ == "__main__":
    sys.exit(check_golden_gamma())
