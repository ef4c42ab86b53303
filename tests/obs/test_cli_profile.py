"""CLI observability: --profile, --trace-json, the profile subcommand."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.experiments import profiling, registry
from repro.experiments.params import FAST_CONFIG


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRunProfile:
    def test_profile_prints_span_tree_and_metrics(self, capsys):
        assert main(["run", "F1", "--fast", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "experiment" in out
        assert "metrics" in out

    def test_profile_disabled_after_run(self, capsys):
        main(["run", "F1", "--fast", "--profile"])
        assert not obs.enabled()

    def test_trace_json_written(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["run", "F1", "--fast", "--trace-json", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text())
        assert payload[0]["name"] == "experiment"
        assert payload[0]["labels"] == {"id": "F1"}

    def test_plain_run_leaves_obs_untouched(self, capsys):
        assert main(["run", "F1", "--fast"]) == 0
        assert not obs.enabled()
        assert obs.trace_roots() == []


class TestRunJsonEnvelope:
    def test_meta_and_result_in_uniform_envelope(self, capsys):
        assert main(["run", "F1", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"_meta", "result"}
        assert "bandwidth" in payload["result"] and "utility" in payload["result"]
        assert payload["_meta"]["experiment"] == "F1"
        assert payload["_meta"]["elapsed_seconds"] >= 0.0
        assert payload["_meta"]["config"] == "fast"
        assert "metrics" not in payload["_meta"]

    def test_meta_includes_metrics_under_profile(self, capsys):
        assert main(["run", "F1", "--fast", "--json", "--profile"]) == 0
        out = capsys.readouterr().out
        # stdout is the JSON payload followed by the profile report
        payload = json.loads(out[: out.index("\n== ") + 1] if "\n== " in out
                             else out)
        assert "counters" in payload["_meta"]["metrics"]

    def test_checkpoint_json_gets_same_envelope(self, capsys):
        assert main(["run", "T2", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"_meta", "result"}
        assert payload["_meta"]["experiment"] == "T2"
        assert isinstance(payload["result"], list)
        assert all("measured" in row for row in payload["result"])


class TestProfileSubcommand:
    def test_only_subset_text_report(self, capsys):
        assert main(["profile", "--only", "F1", "T2"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "T2" in out
        assert "ok" in out

    def test_json_report_shape(self, capsys):
        assert main(["profile", "--only", "F1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs.profile/v1"
        assert payload["config"] == "fast"
        entries = payload["experiments"]
        assert [e["id"] for e in entries] == ["F1"]
        assert entries[0]["ok"] is True
        assert entries[0]["seconds"] >= 0.0
        assert isinstance(entries[0]["counters"], dict)

    def test_out_writes_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        assert main(["profile", "--only", "F1", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiments"][0]["id"] == "F1"


class TestProfilingModule:
    def test_run_profiled_counter_deltas_are_per_experiment(self):
        obs.enable()
        # pre-existing counts must not leak into the deltas
        obs.counter("batch.solve.calls").inc(500)
        exp = registry.get("T2")
        result, entry = profiling.run_profiled(exp, FAST_CONFIG)
        assert entry.ok and entry.error is None
        assert result is not None
        assert entry.counters.get("batch.solve.calls", 0) < 500

    def test_run_profiled_captures_exceptions(self):
        obs.enable()
        broken = registry.Experiment(
            "X0", "always fails", lambda config=None: 1 / 0
        )
        result, entry = profiling.run_profiled(broken, FAST_CONFIG)
        assert result is None
        assert not entry.ok
        assert "ZeroDivisionError" in entry.error
        assert entry.to_dict()["error"] == entry.error

    def test_profile_all_covers_every_registered_experiment(self):
        # ids only — actually running all experiments is the CLI's job
        obs.enable()
        entries = profiling.profile_all(FAST_CONFIG, only=["F1", "T2"])
        assert [e.exp_id for e in entries] == ["F1", "T2"]
        report = profiling.report_dict(entries, config_name="fast")
        assert report["total_seconds"] == pytest.approx(
            sum(e.seconds for e in entries)
        )
        text = profiling.render_entries(entries)
        assert "2/2 ok" in text
