"""Resource profiling: peak-RSS and allocation sampling around hot blocks.

The chunked batch kernels and the ensemble's trajectory buffers were sized by
argument, not by measurement; this module supplies the measurement.
:func:`profile_block` wraps a region of code and records

* the process peak RSS after the block (``getrusage`` high-water mark,
  monotone per process — an *upper bound* attribution, cheap enough
  for production paths), exported as the gauge
  ``resources.<label>.peak_rss_bytes``;
* with tracemalloc active (:func:`enable_alloc_tracing`, or the
  ``REPRO_TRACEMALLOC=1`` environment variable), the block's traced
  peak and net allocation plus its top allocation sites, exported as
  ``resources.<label>.alloc_peak_bytes`` / ``.alloc_net_bytes`` and a
  ``resources.sample`` journal event.

The disabled path is one :func:`repro.obs.enabled` flag plus one
journal ``None`` check: with observability off and no journal open,
:func:`profile_block` returns a shared no-op context manager and
touches nothing else.  tracemalloc in particular is never started
implicitly — it costs 2-4x on allocation-heavy paths and must remain a
deliberate opt-in.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from typing import Dict, List, Optional

from repro import obs
from repro.obs import events
from repro.obs.tracing import NULL_SPAN

#: Environment opt-in for allocation tracing (checked once per block,
#: so flipping it mid-process works in tests).
TRACEMALLOC_ENV = "REPRO_TRACEMALLOC"

#: How many top allocation sites a sample records.
TOP_ALLOCATIONS = 5


def peak_rss_bytes() -> int:
    """The process' lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised
    here.  Returns 0 on platforms without :mod:`resource` (Windows),
    so callers can treat 0 as "unavailable".
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(peak)
    return int(peak) * 1024


def alloc_tracing_active() -> bool:
    """True when tracemalloc is collecting (however it was started)."""
    return tracemalloc.is_tracing()


def enable_alloc_tracing(nframes: int = 1) -> None:
    """Start tracemalloc if it is not already running."""
    if not tracemalloc.is_tracing():
        tracemalloc.start(nframes)


def disable_alloc_tracing() -> None:
    """Stop tracemalloc if running."""
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def top_allocations(
    snapshot_before: Optional[tracemalloc.Snapshot],
    snapshot_after: tracemalloc.Snapshot,
    *,
    top: int = TOP_ALLOCATIONS,
) -> List[Dict[str, object]]:
    """The block's largest allocation sites as JSON-ready rows."""
    if snapshot_before is not None:
        stats = snapshot_after.compare_to(snapshot_before, "lineno")
        rows = [
            {
                "site": f"{s.traceback[0].filename}:{s.traceback[0].lineno}",
                "size_bytes": s.size_diff,
                "count": s.count_diff,
            }
            for s in stats[:top]
        ]
    else:  # pragma: no cover - defensive fallback
        stats = snapshot_after.statistics("lineno")
        rows = [
            {
                "site": f"{s.traceback[0].filename}:{s.traceback[0].lineno}",
                "size_bytes": s.size,
                "count": s.count,
            }
            for s in stats[:top]
        ]
    return rows


class _ResourceBlock:
    """Live context manager behind :func:`profile_block`."""

    __slots__ = ("label", "extra", "_trace", "_before", "_trace_before")

    def __init__(self, label: str, extra: Dict[str, object]):
        self.label = label
        self.extra = extra
        self._trace = False
        self._before: Optional[tracemalloc.Snapshot] = None
        self._trace_before = (0, 0)

    def __enter__(self) -> "_ResourceBlock":
        self._trace = tracemalloc.is_tracing() or bool(
            os.environ.get(TRACEMALLOC_ENV)
        )
        if self._trace:
            enable_alloc_tracing()
            tracemalloc.reset_peak()
            self._trace_before = tracemalloc.get_traced_memory()
            self._before = tracemalloc.take_snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rss = peak_rss_bytes()
        fields: Dict[str, object] = {"label": self.label, "peak_rss_bytes": rss}
        fields.update(self.extra)
        if obs.enabled():
            obs.gauge(f"resources.{self.label}.peak_rss_bytes").set(rss)
        if self._trace:
            current, peak = tracemalloc.get_traced_memory()
            net = current - self._trace_before[0]
            after = tracemalloc.take_snapshot()
            sites = top_allocations(self._before, after)
            fields["alloc_peak_bytes"] = peak
            fields["alloc_net_bytes"] = net
            fields["top_allocations"] = sites
            if obs.enabled():
                obs.gauge(f"resources.{self.label}.alloc_peak_bytes").set(peak)
                obs.gauge(f"resources.{self.label}.alloc_net_bytes").set(net)
        events.emit("resources.sample", **fields)
        return False


def profile_block(label: str, **extra):
    """Context manager sampling resources around one labelled block.

    Near-free when both metrics and the journal are off (returns the
    shared no-op span).  ``extra`` fields ride along on the gauge-less
    journal event for correlation (grid sizes, replication counts).
    """
    if not obs.enabled() and events.journal() is None:
        return NULL_SPAN
    return _ResourceBlock(label, extra)
