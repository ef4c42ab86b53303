"""Tests for the experiment harness: params, registry, report, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (
    DEFAULT_CONFIG,
    EXPERIMENTS,
    FAST_CONFIG,
    PaperConfig,
    figure1,
    get,
)
from repro.experiments.checkpoints import Checkpoint
from repro.experiments.report import (
    markdown_checkpoint_table,
    render,
    render_checkpoints,
    render_series,
    to_json,
)


class TestPaperConfig:
    def test_default_constants_match_paper(self):
        assert DEFAULT_CONFIG.kbar == 100.0
        assert DEFAULT_CONFIG.kappa == pytest.approx(0.62086)
        assert DEFAULT_CONFIG.z == 3.0
        assert DEFAULT_CONFIG.alpha == 0.1

    def test_loads_have_paper_mean(self):
        small = PaperConfig(kbar=20.0)
        for name in ("poisson", "exponential", "algebraic"):
            assert small.load(name).mean == pytest.approx(20.0, rel=1e-6)

    def test_utilities(self):
        assert DEFAULT_CONFIG.utility("rigid").b_hat == 1.0
        assert DEFAULT_CONFIG.utility("adaptive").kappa == pytest.approx(0.62086)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.load("weibull")
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.utility("elastic")


class TestRegistry:
    def test_all_figures_and_tables_registered(self):
        for exp_id in ("F1", "F2", "F3", "F4", "T1", "T2", "T3", "T4", "T5"):
            assert exp_id in EXPERIMENTS

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known ids"):
            get("F9")

    def test_figure1_series(self):
        out = figure1(FAST_CONFIG)
        assert out["utility"][0] == 0.0
        assert out["utility"][-1] == pytest.approx(1.0, abs=1e-4)
        assert np.all(np.diff(out["utility"]) >= 0.0)


class TestReport:
    def test_render_series_scalar_header(self):
        text = render_series({"alpha": np.array([0.1]), "x": np.array([1.0, 2.0])})
        assert "alpha=0.1" in text
        assert "x" in text

    def test_render_series_mixed_lengths(self):
        text = render_series(
            {"x": np.array([1.0, 2.0, 3.0]), "p": np.array([0.1, 0.2])}
        )
        assert "x" in text and "p" in text

    def test_render_checkpoints_summary_line(self):
        rows = [
            Checkpoint("X1", "thing", "~1", 1.0, True),
            Checkpoint("X2", "other", "~2", 3.0, False),
        ]
        text = render_checkpoints(rows)
        assert "1/2 checkpoints" in text
        assert "DIFFERS" in text

    def test_to_json_round_trips(self):
        rows = [Checkpoint("X1", "thing", "~1", 1.0, True)]
        payload = json.loads(to_json(rows))
        assert payload["_meta"] == {}
        assert payload["result"][0]["id"] == "X1"
        series = json.loads(to_json({"x": np.array([1.0, 2.0])}))
        assert series["result"]["x"] == [1.0, 2.0]

    def test_to_json_envelope_is_uniform_across_shapes(self):
        # dicts, checkpoint lists and scalars all share one envelope
        for result in ({"x": np.array([1.0, 2.0])},
                       [Checkpoint("X1", "t", "~1", 1.0, True)],
                       3.5):
            payload = json.loads(to_json(result, meta={"config": "fast"}))
            assert set(payload) == {"_meta", "result"}
            assert payload["_meta"]["config"] == "fast"

    def test_markdown_table(self):
        rows = [Checkpoint("X1", "thing", "~1", 1.0, True)]
        table = markdown_checkpoint_table(rows)
        assert table.startswith("| id |")
        assert "| X1 |" in table

    def test_render_dispatch(self):
        assert "x" in render({"x": np.array([1.0, 2.0])})
        assert "checkpoints match" in render(
            [Checkpoint("X1", "t", "~1", 1.0, True)]
        )


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "F2" in out and "T5" in out

    def test_run_figure1(self, capsys):
        assert main(["run", "F1", "--fast"]) == 0
        assert "utility" in capsys.readouterr().out

    def test_run_json(self, capsys):
        assert main(["run", "F1", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "bandwidth" in payload["result"]

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "F9"]) == 2
        assert "known ids" in capsys.readouterr().err


class TestCliExport:
    def test_export_writes_files(self, tmp_path, capsys):
        assert main(["export", "F1", "--out", str(tmp_path), "--fast"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out
        assert any(p.suffix == ".csv" for p in tmp_path.iterdir())

    def test_export_rejects_checkpoint_ids(self, tmp_path, capsys):
        assert main(["export", "T1", "--out", str(tmp_path)]) == 2
        assert "checkpoint table" in capsys.readouterr().err

    def test_export_unknown_id(self, tmp_path, capsys):
        assert main(["export", "F9", "--out", str(tmp_path)]) == 2
        assert "known ids" in capsys.readouterr().err


class TestCliArgumentRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "-1"],
            ["serve", "--workers", "0"],
            ["serve", "--port", "70000"],
            ["emulate", "check", "--probes", "0"],
            ["emulate", "check", "--probes", "-3"],
            ["meanfield", "--population", "nan"],
            ["meanfield", "--population", "inf"],
            ["meanfield", "--population", "0"],
            ["meanfield", "--capacities", "nan", "100"],
            ["run", "S1", "--ci", "nan"],
            ["run", "S1", "--ci", "0"],
            ["run", "S1", "--replications", "0"],
        ],
        ids=" ".join,
    )
    def test_refused_before_any_work_with_one_line(self, capsys, argv):
        # one stderr line: no bank fit, solver run or traceback first
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert err.count("\n") == 1 and err.startswith(flag), err


class TestCliAnalyzeTrace:
    def _write_poisson_trace(self, tmp_path):
        import numpy as np

        from repro.traces import FlowTrace, write_trace

        rng = np.random.default_rng(0)
        n = 2000
        arrivals = np.sort(rng.random(n) * 400.0)
        durations = rng.exponential(1.0, n)
        trace = FlowTrace(arrivals, arrivals + durations, horizon=410.0)
        return write_trace(trace, tmp_path / "trace.csv")

    def test_analyze_trace_prints_verdict(self, tmp_path, capsys):
        path = self._write_poisson_trace(tmp_path)
        assert main(["traces", "analyze", str(path), "--samples", "1200"]) == 0
        out = capsys.readouterr().out
        assert "identified census family" in out
        assert "verdict" in out

    def test_analyze_trace_rigid_utility(self, tmp_path, capsys):
        path = self._write_poisson_trace(tmp_path)
        assert main(
            [
                "traces", "analyze", str(path),
                "--utility", "rigid", "--samples", "1200",
            ]
        ) == 0
        assert "verdict" in capsys.readouterr().out


class TestCliTraceRefusals:
    @pytest.mark.parametrize(
        "data",
        [b"# horizon=10\n0,1\n\xff\xfe,2\n", b"# horizon=10\n0,1\n1,2," + b"7" * 131073 + b"\n"],
        ids=["not-utf8", "oversized-field"],
    )
    def test_bad_trace_exits_2_with_one_line(self, tmp_path, capsys, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert main(["traces", "replay", str(path), "--capacity", "10"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{path} line 3" in err

    @pytest.mark.parametrize("case", ["junk-npz-segment", "nan-capacity"])
    def test_bad_segment_or_capacity_exits_2_with_one_line(self, tmp_path, capsys, case):
        from repro.traces import default_workload, write_trace_npz

        path = write_trace_npz(
            default_workload("poisson", 5.0).stream(20.0, seed=1), tmp_path / "seg"
        )
        capacity, named = "nan", "capacity"
        if case == "junk-npz-segment":
            (path / "segment-00000.npz").write_bytes(b"junk" * 16)
            capacity, named = "10", "segment-00000.npz"
        assert main(["traces", "replay", str(path), "--capacity", capacity]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert named in err

    def test_window_count_past_the_cap_exits_2_with_one_line(self, tmp_path, capsys):
        from repro.traces import MAX_WINDOWS, default_workload, write_trace_csv

        path = write_trace_csv(
            default_workload("poisson", 5.0).stream(20.0, seed=1), tmp_path / "t.csv"
        )
        argv = ["traces", "replay", str(path), "--capacity", "10", "--windows"]
        for windows in (MAX_WINDOWS + 1, 1_000_000):
            assert main([*argv, str(windows)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert f"windows <= {MAX_WINDOWS}" in err
        assert main([*argv, str(MAX_WINDOWS), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["windows"] == MAX_WINDOWS
