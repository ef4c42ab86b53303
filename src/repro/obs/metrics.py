"""Thread-safe metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Instrumented code asks the registry by name each time
(``registry.counter(name)``), so registries can be swapped or reset
without stale handles.  Lookup of an existing instrument is a single
dict read (safe under the GIL); the registry lock is only taken to
create one.

Everything exports to plain dicts (:meth:`MetricsRegistry.snapshot`)
so JSON serialisation is trivial and lossless.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional

#: Ring-buffer size for histogram percentile samples.
HISTOGRAM_SAMPLE_CAP = 512


class MetricTypeMismatchError(TypeError):
    """A metric name was used as two different instrument kinds.

    Raised both on direct registry access (``counter("x")`` after
    ``gauge("x")``) and — the case that used to be easy to miss — when
    merging a worker snapshot whose instrument kind disagrees with the
    local registry's.  Subclasses ``TypeError`` for backward
    compatibility with callers catching the old generic error.
    """


class Counter:
    """A monotonically increasing count (events, iterations, calls)."""

    kind = "counter"

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0.0:
            raise ValueError(f"counter {self.name}: increment must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def export(self) -> float:
        """Snapshot value (counters export as a bare number)."""
        return self._value


class Gauge:
    """A point-in-time value that can move both ways (rates, sizes)."""

    kind = "gauge"

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = float("nan")
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the latest observation."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """Most recent value (NaN before the first ``set``)."""
        return self._value

    def export(self) -> float:
        """Snapshot value (gauges export as a bare number)."""
        return self._value


class Histogram:
    """Summary statistics of a stream of observations (e.g. residuals).

    Tracks count/sum/min/max exactly and keeps a bounded ring buffer
    of recent samples for approximate percentiles, so memory stays
    O(1) no matter how hot the instrumented path is.
    """

    kind = "histogram"

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_samples", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        with self._lock:
            if self._count < HISTOGRAM_SAMPLE_CAP:
                self._samples.append(v)
            else:
                self._samples[self._count % HISTOGRAM_SAMPLE_CAP] = v
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self._sum / self._count if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile from the sample buffer."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return float("nan")
        idx = min(len(samples) - 1, int(round(q / 100.0 * (len(samples) - 1))))
        return samples[idx]

    def export(self) -> Dict[str, float]:
        """Snapshot of the summary statistics."""
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }

    def absorb(self, stats: Dict[str, float]) -> None:
        """Fold an exported stats dict (another histogram's
        :meth:`export`) into this one.

        count/sum/min/max merge exactly; the sample ring buffer is not
        transferable, so percentiles afterwards reflect only locally
        observed samples.  Used to aggregate per-worker registries.
        """
        count = int(stats.get("count", 0))
        if count == 0:
            return
        with self._lock:
            self._count += count
            self._sum += float(stats["sum"])
            self._min = min(self._min, float(stats["min"]))
            self._max = max(self._max, float(stats["max"]))


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call makes the instrument, later calls return the same object.
    Asking for an existing name as a different kind raises
    ``TypeError`` — metric names identify one instrument each.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise MetricTypeMismatchError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (names and values)."""
        with self._lock:
            self._instruments = {}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict export grouped by instrument kind, names sorted.

        Includes a ``"types"`` map (name -> instrument kind) so a
        snapshot is self-describing: :meth:`absorb_snapshot` uses it
        to reject kind clashes explicitly instead of relying on which
        section a name happens to sit in.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "types": {},
        }
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.export()
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.export()
            else:
                out["histograms"][name] = instrument.export()
            out["types"][name] = instrument.kind
        return out

    def to_json(self, *, indent: int = 2) -> str:
        """JSON form of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent)

    def absorb_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a plain-dict :meth:`snapshot` into this registry.

        Counters add, gauges take the snapshot's value (last write
        wins), histogram summary stats merge via
        :meth:`Histogram.absorb`.  This is how the parallel runner
        merges per-worker registries into the parent's one aggregate.

        Kind clashes raise :class:`MetricTypeMismatchError` *before*
        any value is folded in: a worker histogram must never be
        coerced into (or silently shadowed by) a parent counter of the
        same name, and a snapshot whose ``types`` tag disagrees with
        the section a name sits in is rejected as corrupt.
        """
        self._check_snapshot_types(snapshot)
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            value = float(value)
            if not math.isnan(value):
                self.gauge(name).set(value)
        for name, stats in snapshot.get("histograms", {}).items():
            self.histogram(name).absorb(stats)

    _SECTION_KINDS = (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("histograms", "histogram"),
    )

    def _check_snapshot_types(
        self, snapshot: Dict[str, Dict[str, object]]
    ) -> None:
        """Validate an incoming snapshot's kinds against tags and self."""
        declared = snapshot.get("types") or {}
        for section, kind in self._SECTION_KINDS:
            for name in snapshot.get(section, {}):
                tagged = declared.get(name)
                if tagged is not None and tagged != kind:
                    raise MetricTypeMismatchError(
                        f"snapshot tags metric {name!r} as {tagged!r} but "
                        f"lists it under {section!r} — snapshot is corrupt"
                    )
                existing = self._instruments.get(name)
                if existing is not None and existing.kind != kind:
                    raise MetricTypeMismatchError(
                        f"cannot merge snapshot: metric {name!r} is a "
                        f"{kind} in the snapshot but a {existing.kind} "
                        f"in this registry"
                    )

    def render_text(self) -> str:
        """Aligned text table of every instrument (for --profile output)."""
        snap = self.snapshot()
        lines: List[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, stats in snap["histograms"].items():
                if stats.get("count", 0) == 0:
                    lines.append(f"  {name}  (empty)")
                    continue
                lines.append(
                    f"  {name}  count={stats['count']} mean={stats['mean']:.4g} "
                    f"min={stats['min']:.4g} p50={stats['p50']:.4g} "
                    f"p99={stats['p99']:.4g} max={stats['max']:.4g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_snapshots(snapshots) -> Dict[str, Dict[str, object]]:
    """Merge several :meth:`MetricsRegistry.snapshot` dicts into one.

    Counters sum, gauges keep the last non-NaN value (snapshot order),
    histograms merge count/sum/min/max and recompute the mean —
    percentiles are dropped, since sample buffers do not travel in a
    snapshot.  This is the read-only counterpart of
    :meth:`MetricsRegistry.absorb_snapshot`, used for the parallel
    runner's aggregate report.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.absorb_snapshot(snap)
    out = merged.snapshot()
    for stats in out["histograms"].values():
        stats.pop("p50", None)
        stats.pop("p99", None)
    return out


class CallCounter:
    """Wrap a callable, counting invocations (for evaluation counters).

    Used by instrumented numeric code to count objective/integrand
    evaluations without touching a registry inside the inner loop;
    the caller flushes ``calls`` into a counter once at the end.
    """

    __slots__ = ("func", "calls")

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)
