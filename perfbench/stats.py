"""Order statistics the harness reports: medians, quartiles, tails.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it; a percentile with fewer
samples past it is noise and is not reported at all.  Where a median
does not repeat from run to run, the result line carries the lower
quartile instead (:func:`lower_quartile`).
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.0, 90.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile, interpolated between samples so that it never
    leaves their range (``statistics.quantiles`` with the inclusive
    method)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def _rank(q: float, n: int) -> int:
    """Nearest rank of percentile ``q`` among ``n`` samples (1-based).

    Works in permille integers so ``ceil(q * n / 100)`` has no float
    round-off (``0.999 * 1000`` is not exactly 999).
    """
    permille = round(q * 10)
    return max(1, -(-permille * n // 1000))


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``q``."""
    return n - _rank(q, n)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100)."""
    ordered = sorted(values)
    return float(ordered[_rank(q, len(ordered)) - 1])


def tail(
    values: Sequence[float], levels: Sequence[float] = TAIL_LEVELS
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest level with enough samples beyond it.

    ``None`` when even the lowest level has fewer than
    :data:`MIN_BEYOND` samples past it.
    """
    for q in levels:
        if samples_beyond(q, len(values)) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None
