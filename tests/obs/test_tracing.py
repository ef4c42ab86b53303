"""Span nesting, timing monotonicity, disabled no-op path, JSON export."""

import json
import time

import pytest

from repro import obs
from repro.obs.tracing import NULL_SPAN, SpanRecord, Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTracer:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                with tracer.span("grandchild"):
                    pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["child_a", "child_b"]
        assert roots[0].children[1].children[0].name == "grandchild"

    def test_timing_monotonic_and_nested_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.003)
        outer = tracer.roots()[0]
        inner = outer.children[0]
        assert outer.end >= outer.start
        assert inner.duration >= 0.003
        assert outer.duration >= inner.duration
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots()] == ["first", "second"]

    def test_labels_and_annotate(self):
        tracer = Tracer()
        with tracer.span("s", experiment="F3") as live:
            live.annotate(points=25)
        record = tracer.roots()[0]
        assert record.labels == {"experiment": "F3", "points": 25}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        record = tracer.roots()[0]
        assert record.labels["error"] == "RuntimeError"
        assert record.end is not None

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.roots() == []

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer", exp="F1"):
            with tracer.span("inner"):
                pass
        payload = json.loads(tracer.to_json())
        assert payload[0]["name"] == "outer"
        assert payload[0]["labels"] == {"exp": "F1"}
        assert payload[0]["children"][0]["name"] == "inner"
        assert payload[0]["duration_seconds"] >= 0.0


class TestDisabledFastPath:
    def test_span_returns_shared_noop(self):
        assert obs.span("a") is NULL_SPAN
        assert obs.span("b", k=1) is obs.span("c")

    def test_noop_span_records_nothing(self):
        with obs.span("invisible"):
            pass
        assert obs.trace_roots() == []

    def test_noop_annotate(self):
        with obs.span("invisible") as live:
            live.annotate(k=1)  # must not raise

    def test_timed_disabled_passthrough(self):
        @obs.timed()
        def f(x):
            return x + 1

        assert f(1) == 2
        assert obs.trace_roots() == []

    def test_metrics_not_recorded_by_guarded_code(self):
        # the instrumented-code pattern: check, then touch
        if obs.enabled():  # pragma: no cover - must be False here
            obs.counter("should.not.exist").inc()
        assert obs.registry().get("should.not.exist") is None


class TestModuleApi:
    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_enabled_span_recorded(self):
        obs.enable()
        with obs.span("live", tag="x"):
            pass
        roots = obs.trace_roots()
        assert roots[0].name == "live"
        assert roots[0].labels == {"tag": "x"}

    def test_timed_enabled_records_span(self):
        obs.enable()

        @obs.timed("work.unit", kind="test")
        def f(x):
            return 2 * x

        assert f(21) == 42
        record = obs.trace_roots()[0]
        assert record.name == "work.unit"
        assert record.labels == {"kind": "test"}

    def test_timed_default_name_is_qualname(self):
        obs.enable()

        @obs.timed()
        def some_function():
            return 1

        some_function()
        assert "some_function" in obs.trace_roots()[0].name

    def test_session_context_restores_state(self):
        obs.counter("leftover").inc()
        with obs.session() as (reg, tracer):
            assert obs.enabled()
            # session resets by default: the leftover counter is gone
            assert reg.get("leftover") is None
            obs.counter("inside").inc()
            with obs.span("s"):
                pass
        assert not obs.enabled()
        # data recorded during the session stays readable after it
        assert obs.registry().get("inside").value == 1.0
        assert obs.trace_roots()[0].name == "s"

    def test_enable_swaps_in_fresh_sinks(self):
        obs.enable()
        obs.counter("old").inc()
        fresh = obs.MetricsRegistry()
        obs.enable(registry=fresh)
        assert obs.registry() is fresh
        assert obs.registry().get("old") is None

    def test_render_report_contains_both_sections(self):
        obs.enable()
        with obs.span("phase"):
            obs.counter("things").inc(3)
        text = obs.render_report()
        assert "== span hotspots (wall time) ==" in text
        assert "phase" in text
        assert "things" in text


class TestSpanRecordToDict:
    def test_open_span_duration_is_live(self):
        record = SpanRecord("open")
        record.start = time.perf_counter()
        assert record.duration >= 0.0
        assert "duration_seconds" in record.to_dict()
