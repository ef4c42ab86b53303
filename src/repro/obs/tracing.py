"""Structured wall-time tracing: nested spans with labels.

A span measures the wall time of one region of code; spans opened
while another is active nest under it, forming a tree per top-level
region.  The tracer keeps one open-span stack per thread and a shared
list of finished root spans, so concurrent simulations each produce
their own tree.

The fast path matters more than the features: when observability is
disabled, :func:`repro.obs.span` returns a stateless shared no-op
context manager and no :class:`SpanRecord` is ever allocated.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional


class SpanRecord:
    """One finished (or in-flight) timed region."""

    __slots__ = ("name", "labels", "start", "end", "children")

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None):
        self.name = name
        self.labels = labels or {}
        self.start = 0.0
        self.end: Optional[float] = None
        self.children: List["SpanRecord"] = []

    @property
    def duration(self) -> float:
        """Wall seconds from start to end (to now if still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (durations in seconds)."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_seconds": self.duration,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Rebuild a finished span tree from its :meth:`to_dict` form.

        Wall-clock anchors are gone, so the record is pinned at
        ``start = 0`` with ``end`` equal to the recorded duration —
        duration-faithful, which is all the reports use.  This is how
        spans recorded in runner worker processes rejoin the parent's
        trace.
        """
        record = cls(str(data["name"]), dict(data.get("labels") or {}))
        record.start = 0.0
        record.end = float(data.get("duration_seconds", 0.0))
        record.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return record


class _NullSpan:
    """Shared, stateless no-op span — the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def annotate(self, **labels) -> None:
        """No-op counterpart of :meth:`_LiveSpan.annotate`."""


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that opens a :class:`SpanRecord` on the tracer."""

    __slots__ = ("_tracer", "_record", "_is_root")

    def __init__(self, tracer: "Tracer", name: str, labels: Dict[str, object]):
        self._tracer = tracer
        self._record = SpanRecord(name, labels)
        self._is_root = False

    def __enter__(self) -> "_LiveSpan":
        self._is_root = self._tracer._push(self._record)
        self._record.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._record.end = time.perf_counter()
        if exc_type is not None:
            self._record.labels.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._record, self._is_root)
        return False

    def annotate(self, **labels) -> None:
        """Attach labels to the span after it was opened."""
        self._record.labels.update(labels)


class Tracer:
    """Collects span trees: per-thread open stacks, shared finished roots."""

    def __init__(self):
        self._local = threading.local()
        self._roots: List[SpanRecord] = []
        self._lock = threading.Lock()

    # -- stack plumbing used by _LiveSpan ------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, record: SpanRecord) -> bool:
        """Attach under the innermost open span; True if this is a root."""
        stack = self._stack()
        is_root = not stack
        if stack:
            stack[-1].children.append(record)
        stack.append(record)
        return is_root

    def _pop(self, record: SpanRecord, is_root: bool) -> None:
        stack = self._stack()
        # tolerate out-of-order exits (generators suspended mid-span)
        if record in stack:
            while stack and stack[-1] is not record:
                stack.pop()
            stack.pop()
        if is_root:
            self.adopt(record)

    # -- public API ----------------------------------------------------

    def span(self, name: str, **labels) -> _LiveSpan:
        """Open a live span under the current thread's innermost span."""
        return _LiveSpan(self, name, labels)

    def roots(self) -> List[SpanRecord]:
        """Finished top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def adopt(self, record: SpanRecord) -> None:
        """Keep a finished span tree as a root.

        Every root span lands here as it closes, and so do trees
        recorded elsewhere (runner workers), so one report covers the
        whole parallel run.
        """
        with self._lock:
            self._roots.append(record)

    def clear(self) -> None:
        """Drop every recorded span (open stacks are untouched)."""
        with self._lock:
            self._roots = []

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready list of root span trees."""
        return [root.to_dict() for root in self.roots()]

    def to_json(self, *, indent: int = 2) -> str:
        """The whole trace as a JSON array of span trees."""
        return json.dumps(self.to_dicts(), indent=indent)
