"""How fast the machine runs right now, to take host noise out of times.

On a shared host the same code runs up to about 2x slower for seconds to
minutes at a time, whenever other tenants load the cores; a 20-second run
can sit wholly inside a slow or a fast stretch, so no statistic over one
run's samples removes it.  A fixed reference computation slows with the
same stretches, so every time on the result line is divided by the
reference computation timed in the same process right before and right
after it, and multiplied by :data:`REFERENCE_S`: it reads as the time
the operation takes when the probe takes ``REFERENCE_S``.  The printed
tables keep the raw wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds the result line's times are scaled to: about the probe's
#: median in a quiet stretch on the 2-core x86-64 host the harness was
#: tuned on, so that there the scaled times read close to wall times.
REFERENCE_S = 1.4e-3

#: Probes whose median is one measurement.
PROBES = 5

_LOOP = 8000
_DATA = np.random.default_rng(0).random(65536)


def probe_s() -> float:
    """Seconds of the reference computation: a pure-Python loop and a
    NumPy sort, the two kinds of work the workloads mix."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    np.sort(_DATA)
    return time.perf_counter() - start


def measure() -> float:
    """The median of :data:`PROBES` probes, in seconds."""
    return statistics.median(probe_s() for _ in range(PROBES))


def factor(before: float, after: float) -> float:
    """What times measured between probes ``before`` and ``after`` are
    multiplied by to read at reference speed."""
    return REFERENCE_S * 2.0 / (before + after)
