"""Scalar maximisation over a continuous domain.

:func:`maximize_scalar` handles smooth objectives such as the welfare
``V(C) - p*C`` over capacity, using a coarse grid scan to locate the
basin followed by a bounded Brent polish.  The grid stage matters
because rigid utilities make ``V_B`` piecewise-constant, so a purely
local method can stall on a flat.  (The integer ``k_max`` search lives
in :meth:`repro.models.FixedLoadModel.k_max_batch`.)
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
from scipy import optimize

from repro import obs
from repro.errors import ConvergenceError


def maximize_scalar(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    grid: int = 256,
    polish: bool = True,
    xtol: float = 1e-10,
    label: str = "maximum",
) -> Tuple[float, float]:
    """Maximise ``func`` on ``[lo, hi]``.

    Returns ``(x_star, f_star)``.  The interval is scanned on a uniform
    grid of ``grid + 1`` points to locate the best basin, then the
    bracketing neighbourhood is polished with bounded Brent (unless
    ``polish`` is false, e.g. for piecewise-constant objectives where
    the grid value is already exact up to grid resolution).
    """
    if hi < lo:
        raise ValueError(f"{label}: need hi >= lo, got [{lo}, {hi}]")
    if hi == lo:
        return lo, func(lo)
    if obs.enabled():
        obs.counter("optimize.maximize_scalar.calls").inc()
        obs.counter("optimize.maximize_scalar.evaluations").inc(grid + 1)
    xs = np.linspace(lo, hi, grid + 1)
    values = np.array([func(float(x)) for x in xs], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(f"{label}: objective non-finite on grid over [{lo}, {hi}]")
    best = int(np.argmax(values))
    x_best, f_best = float(xs[best]), float(values[best])
    if not polish:
        return x_best, f_best
    left = float(xs[max(best - 1, 0)])
    right = float(xs[min(best + 1, grid)])
    if right > left:
        result = optimize.minimize_scalar(
            lambda x: -func(x),
            bounds=(left, right),
            method="bounded",
            options={"xatol": xtol},
        )
        if result.success:
            x_polished = float(result.x)
            f_polished = float(-result.fun)
            if f_polished > f_best:
                x_best, f_best = x_polished, f_polished
    return x_best, f_best
