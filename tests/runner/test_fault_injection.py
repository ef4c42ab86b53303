"""Kill a run mid-flight; the cache must contain only valid entries.

These tests drive the real CLI in a subprocess (the only honest way
to test SIGKILL) with selections whose work after the start-up banner
(0.5-0.8 s on a 2-core box, most of it S1's ensemble) outlasts the
0.15 s pause, so the kill reliably lands while workers are computing.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.ioutils import TMP_MARKER
from repro.runner.cache import CACHE_SCHEMA, payload_sha256

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _spawn_run_all(cache_dir, ids, jobs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run-all", *ids, "--fast",
         "--jobs", str(jobs), "--cache-dir", str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # so killpg reaches the pool workers too
    )


def _assert_cache_is_clean(cache_dir):
    """Every surviving entry parses, self-verifies, and isn't a temp."""
    entries = list(pathlib.Path(cache_dir).rglob("*.json"))
    for path in entries:
        assert TMP_MARKER not in path.name
        entry = json.loads(path.read_text())  # parses: not truncated
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["payload_sha256"] == payload_sha256(entry["result"])
    return entries


@pytest.mark.slow
class TestKillMidRun:
    def test_sigkill_leaves_no_partial_entries(self, tmp_path):
        ids = ["T1", "F2", "T5", "F3", "S1"]
        proc = _spawn_run_all(tmp_path, ids, jobs=2)
        # wait for the pre-work banner, then let computation begin.
        # The pause must stay well under the post-banner runtime (the
        # four fast sweeps alone finish in 0.2-0.4 s; S1 keeps it going)
        # or the run finishes cleanly before the kill lands.
        banner = proc.stderr.readline()
        assert b"run-all" in banner
        time.sleep(0.15)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode != 0
        _assert_cache_is_clean(tmp_path)

    def test_rerun_after_kill_completes_and_reuses_survivors(self, tmp_path):
        ids = ["T4", "C1", "T1", "S1"]
        # a clean first pass seeds T4/C1; then a killed pass must not
        # corrupt them, and the final pass serves them from cache
        seed = _spawn_run_all(tmp_path, ids[:2], jobs=1)
        assert seed.wait(timeout=120) == 0
        seeded = {p.name for p in _assert_cache_is_clean(tmp_path)}

        proc = _spawn_run_all(tmp_path, ids, jobs=2)
        proc.stderr.readline()
        time.sleep(0.15)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode != 0  # the kill landed before T1 and S1 were done
        surviving = {p.name for p in _assert_cache_is_clean(tmp_path)}
        assert seeded <= surviving

        final = _spawn_run_all(tmp_path, ids, jobs=1)
        assert final.wait(timeout=300) == 0
        _assert_cache_is_clean(tmp_path)
