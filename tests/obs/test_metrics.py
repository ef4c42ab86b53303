"""Registry semantics: counters, gauges, histograms, export."""

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_CAP,
    CallCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeMismatchError,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_thread_safe_increments(self):
        c = Counter("c")

        def worker():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_nan_before_first_set(self):
        assert math.isnan(Gauge("g").value)

    def test_set_overwrites(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5
        stats = h.export()
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["p50"] == pytest.approx(2.0, abs=1.0)

    def test_empty_export(self):
        assert Histogram("h").export() == {"count": 0}
        assert math.isnan(Histogram("h").mean)

    def test_sample_buffer_stays_bounded(self):
        h = Histogram("h")
        for i in range(3 * HISTOGRAM_SAMPLE_CAP):
            h.observe(float(i))
        assert h.count == 3 * HISTOGRAM_SAMPLE_CAP
        assert len(h._samples) == HISTOGRAM_SAMPLE_CAP
        # exact stats still exact despite the bounded buffer
        assert h.export()["max"] == float(3 * HISTOGRAM_SAMPLE_CAP - 1)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.counter("a").value == 0.0

    def test_get_returns_none_for_unknown(self):
        assert MetricsRegistry().get("nope") is None

    def test_snapshot_groups_and_sorts(self):
        reg = MetricsRegistry()
        reg.counter("z.calls").inc(2)
        reg.counter("a.calls").inc(1)
        reg.gauge("rate").set(9.0)
        reg.histogram("resid").observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.calls", "z.calls"]
        assert snap["gauges"]["rate"] == 9.0
        assert snap["histograms"]["resid"]["count"] == 1

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(3)
        reg.gauge("rate").set(1.5)
        reg.histogram("h").observe(2.0)
        payload = json.loads(reg.to_json())
        assert payload["counters"]["calls"] == 3.0
        assert payload["gauges"]["rate"] == 1.5
        assert payload["histograms"]["h"]["mean"] == 2.0

    def test_render_text_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc()
        reg.gauge("rate").set(2.0)
        reg.histogram("h").observe(1.0)
        text = reg.render_text()
        assert "calls" in text and "rate" in text and "h" in text

    def test_render_text_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()


class TestSnapshotTypeTags:
    def test_snapshot_tags_every_instrument_kind(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc()
        reg.gauge("rate").set(1.0)
        reg.histogram("resid").observe(0.5)
        snap = reg.snapshot()
        assert snap["types"] == {
            "calls": "counter",
            "rate": "gauge",
            "resid": "histogram",
        }

    def test_kind_clash_is_the_dedicated_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricTypeMismatchError):
            reg.histogram("x")
        # and it still is a TypeError for legacy catchers
        assert issubclass(MetricTypeMismatchError, TypeError)

    def test_absorb_rejects_kind_clash_with_local_registry(self):
        reg = MetricsRegistry()
        reg.counter("m").inc(2)
        incoming = {"gauges": {"m": 1.0}, "types": {"m": "gauge"}}
        with pytest.raises(MetricTypeMismatchError, match="gauge"):
            reg.absorb_snapshot(incoming)
        # nothing was folded in before the failure
        assert reg.counter("m").value == 2.0

    def test_absorb_rejects_internally_inconsistent_snapshot(self):
        reg = MetricsRegistry()
        corrupt = {
            "counters": {"m": 3.0},
            "types": {"m": "histogram"},  # tag disagrees with section
        }
        with pytest.raises(MetricTypeMismatchError, match="corrupt"):
            reg.absorb_snapshot(corrupt)

    def test_absorb_accepts_untagged_legacy_snapshot(self):
        # snapshots from before the types section must still merge
        reg = MetricsRegistry()
        reg.absorb_snapshot({"counters": {"m": 3.0}})
        assert reg.counter("m").value == 3.0


class TestCallCounter:
    def test_counts_and_delegates(self):
        counted = CallCounter(lambda x: x * 2)
        assert counted(3) == 6
        assert counted(4) == 8
        assert counted.calls == 2
