"""``repro.obs`` — opt-in observability: metrics, tracing, profiling.

The package is **disabled by default** and costs nearly nothing while
disabled: instrumented code guards every metric touch with
:func:`enabled` (a module-global read) and :func:`span` hands back a
shared no-op context manager.  Enabling flips one flag; the active
:class:`MetricsRegistry` and :class:`Tracer` then start collecting.

Typical use::

    from repro import obs

    obs.enable()
    ...  # run experiments / simulations
    print(obs.render_report())  # span hotspot table + metrics
    obs.disable()

Instrumented library code follows one pattern — check, then touch::

    if obs.enabled():
        obs.counter("batch.solve.calls").inc()
    with obs.span("simulation.run", horizon=horizon):
        ...
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.events import (
    EventJournal,
    close_journal,
    emit,
    ensure_journal_from_env,
    journal,
    open_journal,
)
from repro.obs.events import share_env as share_journal_env
from repro.obs.metrics import (
    CallCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeMismatchError,
    merge_snapshots,
)
from repro.obs.traceview import hotspots, render_hotspots
from repro.obs.tracing import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "CallCounter",
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricTypeMismatchError",
    "SpanRecord",
    "Tracer",
    "close_journal",
    "counter",
    "disable",
    "emit",
    "enable",
    "enabled",
    "ensure_journal_from_env",
    "gauge",
    "histogram",
    "journal",
    "merge_snapshots",
    "open_journal",
    "registry",
    "render_report",
    "reset",
    "session",
    "share_journal_env",
    "snapshot",
    "span",
    "timed",
    "trace_json",
    "trace_roots",
    "tracer",
]

_enabled: bool = False
_registry = MetricsRegistry()
_tracer = Tracer()


def enabled() -> bool:
    """True when the observability layer is collecting."""
    return _enabled


def enable(
    registry: Optional[MetricsRegistry] = None, tracer: Optional[Tracer] = None
) -> None:
    """Turn collection on, optionally swapping in fresh sinks."""
    global _enabled, _registry, _tracer
    if registry is not None:
        _registry = registry
    if tracer is not None:
        _tracer = tracer
    _enabled = True


def disable() -> None:
    """Turn collection off (recorded data stays readable)."""
    global _enabled
    _enabled = False


def registry() -> MetricsRegistry:
    """The active metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The active tracer."""
    return _tracer


def reset() -> None:
    """Clear all recorded metrics and spans (enabled state unchanged)."""
    _registry.reset()
    _tracer.clear()


@contextmanager
def session(*, reset_first: bool = True):
    """Enable within a block, restoring the previous state after.

    Yields ``(registry, tracer)`` for convenience::

        with obs.session() as (reg, tr):
            run_workload()
            print(reg.render_text())
    """
    was_enabled = _enabled
    if reset_first:
        reset()
    enable()
    try:
        yield _registry, _tracer
    finally:
        if not was_enabled:
            disable()


# ----------------------------------------------------------------------
# metric conveniences (active registry by name)
# ----------------------------------------------------------------------


def counter(name: str) -> Counter:
    """Counter ``name`` on the active registry."""
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Gauge ``name`` on the active registry."""
    return _registry.gauge(name)


def histogram(name: str) -> Histogram:
    """Histogram ``name`` on the active registry."""
    return _registry.histogram(name)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Plain-dict export of every metric on the active registry."""
    return _registry.snapshot()


# ----------------------------------------------------------------------
# tracing conveniences
# ----------------------------------------------------------------------


def span(name: str, **labels):
    """A timed span context manager (shared no-op when disabled)."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, **labels)


def timed(name: Optional[str] = None, **labels):
    """Decorator recording each call of the function as a span.

    ``name`` defaults to the function's qualified name.  The disabled
    fast path is one flag check on top of the call itself.
    """

    def decorate(func):
        span_name = name if name is not None else func.__qualname__

        def wrapper(*args, **kwargs):
            if not _enabled:
                return func(*args, **kwargs)
            with _tracer.span(span_name, **labels):
                return func(*args, **kwargs)

        wrapper.__name__ = getattr(func, "__name__", span_name)
        wrapper.__qualname__ = getattr(func, "__qualname__", span_name)
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    return decorate


def trace_roots() -> List[SpanRecord]:
    """Finished top-level spans from the active tracer."""
    return _tracer.roots()


def trace_json(*, indent: int = 2) -> str:
    """The active trace as JSON (array of span trees)."""
    return _tracer.to_json(indent=indent)


def render_report() -> str:
    """The ``--profile`` report: the span hotspot table, then the metrics."""
    return (
        "== span hotspots (wall time) ==\n"
        + render_hotspots(hotspots(_tracer.roots()))
        + "\n\n== metrics ==\n"
        + _registry.render_text()
    )
