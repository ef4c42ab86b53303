"""Report/export edge cases: empty sinks, concurrent export, absorb."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, merge_snapshots


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestEmptySinks:
    def test_empty_registry_and_trace_render(self):
        text = obs.render_report()
        assert "(no spans recorded)" in text
        assert "(no metrics recorded)" in text

    def test_empty_registry_snapshot_shape(self):
        snap = MetricsRegistry().snapshot()
        assert snap == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "types": {},
        }

    def test_empty_histogram_renders_as_empty(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert "(empty)" in reg.render_text()


class TestAbsorbEdges:
    def test_absorb_empty_histogram_stats_is_noop(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(3.0)
        h.absorb({"count": 0})
        assert h.count == 1
        assert h.sum == 3.0

    def test_absorb_snapshot_with_empty_histogram_section(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        incoming = {
            "counters": {},
            "gauges": {},
            "histograms": {"h": {"count": 0}},
            "types": {"h": "histogram"},
        }
        reg.absorb_snapshot(incoming)
        assert reg.histogram("h").count == 1

    def test_absorb_snapshot_skips_nan_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        reg.absorb_snapshot(
            {"gauges": {"g": float("nan")}, "types": {"g": "gauge"}}
        )
        assert reg.gauge("g").value == 5.0

    def test_merge_snapshots_of_nothing(self):
        merged = merge_snapshots([])
        assert merged["counters"] == {}
        merged = merge_snapshots(
            [MetricsRegistry().snapshot(), MetricsRegistry().snapshot()]
        )
        assert merged["types"] == {}


class TestConcurrentExport:
    def test_snapshot_during_writes_never_corrupts(self):
        """Exports taken while writers hammer the registry must stay
        self-consistent: every name typed, every value finite-typed."""
        reg = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer(i):
            n = 0
            while not stop.is_set():
                reg.counter(f"c{i}").inc()
                reg.gauge(f"g{i}").set(n)
                reg.histogram(f"h{i}").observe(n % 7)
                n += 1

        def exporter():
            while not stop.is_set():
                try:
                    snap = reg.snapshot()
                    for section in ("counters", "gauges"):
                        for name, value in snap[section].items():
                            assert isinstance(value, float)
                            assert snap["types"][name] in (
                                "counter",
                                "gauge",
                            )
                    for name, stats in snap["histograms"].items():
                        assert snap["types"][name] == "histogram"
                        if stats["count"]:
                            assert stats["sum"] >= 0.0
                    reg.render_text()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=exporter) for _ in range(2)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        for t in threads:
            t.join(timeout=10.0)
        timer.cancel()
        stop.set()
        assert not errors, errors[0]

    def test_concurrent_absorb_and_snapshot(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("tasks").inc(5)
        worker.histogram("residual").observe(1e-9)
        snap = worker.snapshot()
        stop = threading.Event()
        errors = []

        def absorber():
            while not stop.is_set():
                try:
                    parent.absorb_snapshot(snap)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=absorber) for _ in range(4)]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.2, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(timeout=10.0)
        stop_timer.cancel()
        stop.set()
        assert not errors, errors[0]
        # counts remain exact multiples of the absorbed amounts
        assert parent.counter("tasks").value % 5 == 0
        assert parent.histogram("residual").count > 0
