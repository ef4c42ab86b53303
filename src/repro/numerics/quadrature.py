"""Quadrature for the continuum model.

The continuum utilities are piecewise (rigid steps, piecewise-linear
adaptive), so blind adaptive quadrature over a semi-infinite interval
can miss the kinks.  :func:`integrate` accepts explicit break points and
splits the integral there before handing each smooth piece to
:func:`scipy.integrate.quad`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Callable

from repro import obs
from repro.errors import ConvergenceError

#: Default target absolute error for a single integral.
QUAD_TOL = 1e-11


def integrate(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    points: Optional[Iterable[float]] = None,
    tol: float = QUAD_TOL,
    label: str = "integral",
) -> float:
    """Integrate ``func`` over ``[lo, hi]`` (``hi`` may be ``inf``).

    Parameters
    ----------
    points:
        Interior break points (kinks / discontinuities).  Points outside
        ``(lo, hi)`` are ignored.  The integral is computed piecewise
        between consecutive break points so each piece is smooth.
    """
    if hi < lo:
        raise ValueError(f"{label}: need hi >= lo, got [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    # the only scipy.integrate caller: loaded at the first quadrature,
    # not by every `import repro`
    from scipy import integrate as _spi

    cuts = [lo]
    if points is not None:
        cuts.extend(p for p in sorted(points) if lo < p < hi and math.isfinite(p))
    cuts.append(hi)

    # meter integrand evaluations only when observability is on; the
    # counting wrapper would otherwise tax every quad call for nothing
    metered = obs.enabled()
    if metered:
        func = obs.CallCounter(func)

    total = 0.0
    pieces = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        pieces += 1
        value, err = _spi.quad(func, a, b, epsabs=tol, epsrel=tol, limit=200)
        if err > max(100 * tol, 1e-7 * max(1.0, abs(value))):
            raise ConvergenceError(
                f"{label}: quadrature error {err!r} too large on [{a}, {b}]"
            )
        total += value
    if metered:
        obs.counter("quadrature.integrals").inc()
        obs.counter("quadrature.pieces").inc(pieces)
        obs.counter("quadrature.evaluations").inc(func.calls)
    return total
