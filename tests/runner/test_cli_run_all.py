"""The ``run-all`` subcommand and the cache flags on ``run``."""

import json

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


ARGS = ["run-all", "F1", "T2", "T4", "--fast"]


class TestRunAll:
    def test_cold_then_warm_text(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main(ARGS + ["--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "3 experiment(s)" in captured.err
        rows = [ln for ln in captured.out.splitlines() if not ln.startswith("--")]
        assert len(rows) == 3 and all("computed" in row for row in rows)
        assert "3 computed" in captured.out
        assert main(ARGS + ["--cache-dir", cache]) == 0
        assert "3 cached" in capsys.readouterr().out

    def test_json_envelope(self, tmp_path, capsys):
        assert main(ARGS + ["--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"_meta", "result"}
        assert payload["_meta"]["schema"] == "repro.runner.report/v1"
        assert payload["_meta"]["counts"] == {"computed": 3}
        assert [row["id"] for row in payload["result"]] == ["F1", "T2", "T4"]

    def test_second_json_run_is_fully_cache_served(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main(ARGS + ["--cache-dir", cache, "--json"]) == 0
        capsys.readouterr()
        assert main(ARGS + ["--cache-dir", cache, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["_meta"]["counts"] == {"cached": 3}

    def test_unknown_id_exits_2(self, tmp_path, capsys):
        assert main(["run-all", "NOPE", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, tmp_path, capsys):
        code = main(ARGS + ["--cache-dir", str(tmp_path), "--jobs", "0"])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        assert main(ARGS + ["--cache-dir", str(tmp_path), "--no-cache"]) == 0
        assert not list(tmp_path.iterdir())

    def test_profile_merges_into_one_report(self, tmp_path, capsys):
        code = main(ARGS + ["--cache-dir", str(tmp_path), "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== span hotspots (wall time) ==" in out
        assert "metrics" in out


class TestRunCacheFlags:
    def test_run_without_cache_dir_never_touches_disk(self, tmp_path, capsys):
        assert main(["run", "F1", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache" not in payload["_meta"]

    def test_run_miss_then_hit(self, tmp_path, capsys):
        cache = str(tmp_path)
        args = ["run", "T2", "--fast", "--json", "--cache-dir", cache]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["_meta"]["cache"] == "miss"
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["_meta"]["cache"] == "hit"
        assert second["result"] == first["result"]

    def test_run_reads_the_entry_run_all_wrote(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main(["run-all", "T2", "--fast", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["run", "T2", "--fast", "--json", "--cache-dir", cache]) == 0
        assert json.loads(capsys.readouterr().out)["_meta"]["cache"] == "hit"

    def test_run_force_recomputes(self, tmp_path, capsys):
        cache = str(tmp_path)
        base = ["run", "T2", "--fast", "--json", "--cache-dir", cache]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--force"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["_meta"]["cache"] == "miss"
