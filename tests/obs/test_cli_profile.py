"""CLI observability of ``run``: --profile, --trace-json, the JSON envelope."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.experiments import registry


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRunProfile:
    def test_profile_prints_span_tree_and_metrics(self, capsys):
        # the span forest prints as the hotspot table `obs hotspots` shows
        assert main(["run", "F1", "--fast", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "== span hotspots (wall time) ==" in out
        assert any(line.split()[:3] == ["span", "count", "self"] for line in out.splitlines())
        assert any(line.startswith("experiment ") for line in out.splitlines())
        assert "== metrics ==" in out

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
        assert payload[0]["labels"] == {"id": "F1", "worker": os.getpid()}

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


class TestRunFailure:
    def test_raising_experiment_exits_1_with_one_line(self, capsys, monkeypatch):
        broken = registry.Experiment("X0", "always fails", lambda config=None: 1 / 0)
        monkeypatch.setitem(registry.EXPERIMENTS, "X0", broken)
        for flags in ([], ["--json"], ["--profile"]):
            assert main(["run", "X0", "--fast", *flags]) == 1
            err = capsys.readouterr().err
            assert err == "X0: ZeroDivisionError: division by zero\n", err
            assert not obs.enabled()
