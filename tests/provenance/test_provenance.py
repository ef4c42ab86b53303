"""Tests for the frozen-result provenance registry (freeze + verify)."""

import dataclasses
import json
import shutil

import pytest

from repro.errors import ProvenanceError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.models import VariableLoadModel
from repro.provenance import (
    COMPONENTS,
    MANIFEST_NAME,
    PROVENANCE_SCHEMA,
    Manifest,
    freeze,
    sha256_file,
    verify,
)
from repro.provenance.freeze import TRACES_SUMMARY

#: A deliberately small replay spec so freeze/verify run in ~a second.
TINY_SPEC = {
    "workload": "poisson",
    "rate": 25.0,
    "horizon": 60.0,
    "seed": 7,
    "chunk_flows": 1024,
    "capacity": 27.5,
    "windows": 4,
    "warmup": 10.0,
}


@pytest.fixture(scope="module")
def source_root(tmp_path_factory):
    """A synthetic repo root whose pins are exactly what verify recomputes."""
    root = tmp_path_factory.mktemp("source")
    cfg = DEFAULT_CONFIG
    caps = [60.0, 90.0]
    figures = {}
    for name, load in (
        ("figure2", "poisson"),
        ("figure3", "exponential"),
        ("figure4", "algebraic"),
    ):
        model = VariableLoadModel(cfg.load(load), cfg.utility("adaptive"))
        figures[name] = {
            "capacity": caps,
            "delta": [model.performance_gap(c) for c in caps],
        }
    shared = VariableLoadModel(cfg.load("algebraic"), cfg.utility("adaptive"))
    figures["algebraic_shared_tables"] = {
        "capacity": caps,
        "best_effort": [shared.best_effort(c) for c in caps],
    }
    golden = root / "tests" / "golden" / "figures.json"
    golden.parent.mkdir(parents=True)
    golden.write_text(json.dumps(figures, indent=2) + "\n")

    bench = {
        "BENCH_ensemble.json": {"headline": {"exact_parity": True}},
        "BENCH_meanfield.json": {"gate": {"gap_compatible": True}},
        "BENCH_service.json": {"accuracy": {"worst_residual_bound_units": 0.4}},
        "BENCH_traces.json": {
            "headline": {"constant_memory": True, "flows": 1_099_720}
        },
        "BENCH_ungated.json": {"timing": {"seconds": 1.0}},
    }
    for name, payload in bench.items():
        (root / name).write_text(json.dumps(payload, indent=2) + "\n")
    return root


@pytest.fixture(scope="module")
def snapshot(source_root, tmp_path_factory):
    """A full freeze of the synthetic root (shared; copy before tampering)."""
    snap = tmp_path_factory.mktemp("snapshots") / "snap"
    freeze(snap, source_root=source_root, trace_specs=[TINY_SPEC])
    return snap


def _tampered_copy(snapshot, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(snapshot, copy)
    return copy


def _rehash(snapshot, rel):
    """Update the manifest hash for one artifact (simulates a clean edit)."""
    manifest = Manifest.load(snapshot)
    path = snapshot / rel
    artifacts = dict(manifest.artifacts)
    artifacts[rel] = {"sha256": sha256_file(path), "bytes": path.stat().st_size}
    dataclasses.replace(manifest, artifacts=artifacts).save(snapshot)


class TestFreeze:
    def test_manifest_inventories_every_artifact(self, snapshot):
        manifest = Manifest.load(snapshot)
        assert manifest.schema == PROVENANCE_SCHEMA
        assert "golden/figures.json" in manifest.artifacts
        assert TRACES_SUMMARY in manifest.artifacts
        assert "bench/BENCH_ensemble.json" in manifest.artifacts
        assert "bench/BENCH_ungated.json" in manifest.artifacts
        for entry in manifest.artifacts.values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0
        assert set(manifest.recompute) == {"golden", "bench", "traces"}

    def test_hashes_match_the_files(self, snapshot):
        manifest = Manifest.load(snapshot)
        for rel, entry in manifest.artifacts.items():
            assert sha256_file(snapshot / rel) == entry["sha256"], rel

    def test_trace_summary_carries_its_spec(self, snapshot):
        summary = json.loads((snapshot / TRACES_SUMMARY).read_text())
        assert summary["schema"] == "repro.provenance.traces/v1"
        (entry,) = summary["replays"]
        for key, value in TINY_SPEC.items():
            assert entry[key] == value
        assert entry["flows"] > 0 and entry["gap"] == pytest.approx(
            entry["reservation"] - entry["best_effort"]
        )

    def test_unknown_component_rejected(self, tmp_path, source_root):
        with pytest.raises(ProvenanceError, match="unknown components"):
            freeze(tmp_path / "s", source_root=source_root, include=("benches",))

    def test_empty_component_list_rejected(self, tmp_path, source_root):
        with pytest.raises(ProvenanceError, match="nothing to freeze"):
            freeze(tmp_path / "s", source_root=source_root, include=())

    def test_missing_golden_pins_rejected(self, tmp_path):
        empty = tmp_path / "empty-root"
        empty.mkdir()
        with pytest.raises(ProvenanceError, match="golden pins"):
            freeze(tmp_path / "s", source_root=empty, include=("golden",))

    def test_components_constant_is_the_full_set(self):
        assert COMPONENTS == ("golden", "bench", "traces")


class TestVerify:
    def test_clean_snapshot_passes_every_check(self, snapshot):
        report = verify(snapshot)
        assert report.ok, report.render()
        ids = {check.check_id for check in report.checks}
        assert "config_digest" in ids
        assert f"hash:{TRACES_SUMMARY}" in ids
        assert "golden:figure2:delta" in ids
        assert "golden:algebraic_shared_tables:best_effort" in ids
        assert "bench:BENCH_ensemble.json" in ids
        assert "traces:poisson:seed7" in ids
        assert "PASSED" in report.render()

    def test_tampered_artifact_fails_the_hash_check(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / TRACES_SUMMARY
        path.write_text(path.read_text() + "\n")
        report = verify(copy)
        assert not report.ok
        assert any(
            c.check_id == f"hash:{TRACES_SUMMARY}" for c in report.failures
        )
        assert "FAILED" in report.render()

    def test_missing_artifact_fails_the_hash_check(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        (copy / "bench" / "BENCH_ungated.json").unlink()
        report = verify(copy)
        failed = {c.check_id for c in report.failures}
        assert "hash:bench/BENCH_ungated.json" in failed

    def test_drifted_replay_numbers_fail_the_recompute(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / TRACES_SUMMARY
        payload = json.loads(path.read_text())
        payload["replays"][0]["gap"] *= 1.01
        path.write_text(json.dumps(payload, indent=2) + "\n")
        _rehash(copy, TRACES_SUMMARY)
        report = verify(copy)
        failed = {c.check_id for c in report.failures}
        # hash is clean (the manifest was updated); the recompute is not
        assert f"hash:{TRACES_SUMMARY}" not in failed
        assert "traces:poisson:seed7" in failed

    def test_drifted_flow_count_is_called_out(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / TRACES_SUMMARY
        payload = json.loads(path.read_text())
        payload["replays"][0]["flows"] += 1
        path.write_text(json.dumps(payload, indent=2) + "\n")
        _rehash(copy, TRACES_SUMMARY)
        report = verify(copy)
        (failure,) = [
            c for c in report.failures if c.check_id == "traces:poisson:seed7"
        ]
        assert "flow count drifted" in failure.detail

    def test_drifted_golden_delta_fails_the_recompute(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / "golden" / "figures.json"
        payload = json.loads(path.read_text())
        payload["figure2"]["delta"][0] += 1e-3
        path.write_text(json.dumps(payload, indent=2) + "\n")
        _rehash(copy, "golden/figures.json")
        report = verify(copy)
        failed = {c.check_id for c in report.failures}
        assert "golden:figure2:delta" in failed
        assert "golden:figure3:delta" not in failed

    def test_failed_bench_gate_is_reported(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / "bench" / "BENCH_meanfield.json"
        path.write_text(json.dumps({"gate": {"gap_compatible": False}}) + "\n")
        _rehash(copy, "bench/BENCH_meanfield.json")
        report = verify(copy)
        failed = {c.check_id for c in report.failures}
        assert "bench:BENCH_meanfield.json" in failed

    def test_undersized_replay_fails_the_traces_gate(self, snapshot, tmp_path):
        copy = _tampered_copy(snapshot, tmp_path)
        path = copy / "bench" / "BENCH_traces.json"
        path.write_text(
            json.dumps({"headline": {"constant_memory": True, "flows": 10}})
            + "\n"
        )
        _rehash(copy, "bench/BENCH_traces.json")
        report = verify(copy)
        failed = {c.check_id for c in report.failures}
        assert "bench:BENCH_traces.json" in failed

    def test_config_drift_fails_the_digest_check(self, tmp_path):
        snap = tmp_path / "snap"
        freeze(snap, include=("traces",), trace_specs=[TINY_SPEC])
        report = verify(
            snap, config=PaperConfig(kbar=DEFAULT_CONFIG.kbar + 1.0)
        )
        (digest,) = [c for c in report.checks if c.check_id == "config_digest"]
        assert not digest.passed and "config drifted" in digest.detail

    def test_report_round_trips_to_json(self, snapshot):
        report = verify(snapshot)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(report.checks)


class TestManifestStructure:
    def test_not_a_snapshot(self, tmp_path):
        with pytest.raises(ProvenanceError, match=MANIFEST_NAME):
            Manifest.load(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(ProvenanceError, match="corrupt"):
            Manifest.load(tmp_path)

    def test_wrong_schema(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"schema": "other/v2"}')
        with pytest.raises(ProvenanceError, match="schema"):
            Manifest.load(tmp_path)

    def test_missing_keys(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"schema": PROVENANCE_SCHEMA, "git_sha": "x"})
        )
        with pytest.raises(ProvenanceError, match="missing manifest key"):
            Manifest.load(tmp_path)

    def test_verify_refuses_a_non_snapshot(self, tmp_path):
        with pytest.raises(ProvenanceError):
            verify(tmp_path)
