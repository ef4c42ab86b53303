"""Freeze published results into a snapshot; verify them by recompute.

``freeze`` collects the repository's published result surface — the
golden figure pins, the committed ``BENCH_*.json`` gate files, and
freshly computed seeded trace-replay summaries — into one snapshot
directory with a sha256 :class:`~repro.provenance.manifest.Manifest`.

``verify`` is the other half of the evidence chain: it re-hashes every
artifact, re-evaluates the bench gate predicates from the frozen JSON,
and *recomputes* the headline numbers (golden figure gaps, trace-replay
summaries) from scratch with the current code, comparing under the
PR-5 tolerance policies.  A passing verify therefore certifies both
"the bytes are the ones we published" and "today's code still produces
those numbers" — exactly what a recompute-verify CI job needs.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from typing import Dict, List, Mapping, Optional, Sequence

from repro import obs
from repro.errors import ProvenanceError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.ioutils import atomic_write_text
from repro.obs.events import git_sha
from repro.provenance.manifest import (
    MANIFEST_NAME,
    PROVENANCE_SCHEMA,
    Manifest,
    ProvenanceCheck,
    ProvenanceReport,
    sha256_file,
    utc_now,
)
from repro.runner import code_fingerprint, config_digest
from repro.verify.tolerance import GOLDEN

#: The three freezable artifact groups.
COMPONENTS = ("golden", "bench", "traces")

#: Repository-relative source of the golden pins.
GOLDEN_SOURCE = "tests/golden/figures.json"

#: File name of the recomputable replay summaries inside a snapshot.
TRACES_SUMMARY = "traces/replay_summary.json"

#: Gate predicates re-evaluated from the *frozen* bench JSON: the
#: correctness flags each bench asserts when it runs.  Timing numbers
#: are machine-bound and are hash-verified only.
_BENCH_GATES = {
    "BENCH_ensemble.json": (
        "headline run has exact scalar/ensemble parity",
        lambda d: bool(d.get("headline", {}).get("exact_parity")),
    ),
    "BENCH_meanfield.json": (
        "gate-population gap estimates are CI-compatible",
        lambda d: bool(d.get("gate", {}).get("gap_compatible")),
    ),
    "BENCH_service.json": (
        "served surfaces stay inside certified residual bounds",
        lambda d: float(
            d.get("accuracy", {}).get("worst_residual_bound_units", 2.0)
        )
        <= 1.0,
    ),
    "BENCH_traces.json": (
        "streaming replay handled >= 1e6 flows at constant memory",
        lambda d: bool(d.get("headline", {}).get("constant_memory"))
        and int(d.get("headline", {}).get("flows", 0)) >= 1_000_000,
    ),
}


def _trace_summaries(
    specs: Sequence[Mapping[str, object]]
) -> Dict[str, object]:
    from repro.traces.summary import replay_summary

    return {
        "schema": "repro.provenance.traces/v1",
        "tolerance": "golden (rtol 1e-7, atol 1e-9)",
        "replays": [replay_summary(spec) for spec in specs],
    }


def freeze(
    snapshot_dir,
    *,
    source_root=".",
    config: Optional[PaperConfig] = None,
    include: Sequence[str] = COMPONENTS,
    trace_specs: Optional[Sequence[Mapping[str, object]]] = None,
) -> Manifest:
    """Build a snapshot directory + manifest from the published results.

    ``golden`` copies ``tests/golden/figures.json``; ``bench`` copies
    every committed ``BENCH_*.json``; ``traces`` computes the seeded
    replay summaries fresh (they are derived, not copied, so a freeze
    is itself a first recompute).  Absent components are skipped with a
    note in the recompute spec; asking for none of them is an error.
    """
    unknown = set(include) - set(COMPONENTS)
    if unknown:
        raise ProvenanceError(
            f"unknown components {sorted(unknown)!r}; "
            f"expected a subset of {COMPONENTS}"
        )
    if not include:
        raise ProvenanceError("nothing to freeze: empty component list")
    source_root = pathlib.Path(source_root)
    snapshot = pathlib.Path(snapshot_dir)
    snapshot.mkdir(parents=True, exist_ok=True)
    cfg = DEFAULT_CONFIG if config is None else config
    artifacts: Dict[str, Dict[str, object]] = {}
    recompute: Dict[str, object] = {}

    with obs.span("provenance.freeze", snapshot=str(snapshot)):
        if "golden" in include:
            src = source_root / GOLDEN_SOURCE
            if not src.is_file():
                raise ProvenanceError(f"golden pins not found at {src}")
            dst = snapshot / "golden" / "figures.json"
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
            artifacts["golden/figures.json"] = _artifact_entry(dst)
            recompute["golden"] = {
                "path": "golden/figures.json",
                "figures": ["figure2", "figure3", "figure4"],
                "quantity": "delta",
                "shared_tables": "best_effort",
            }

        if "bench" in include:
            gates: List[str] = []
            for src in sorted(source_root.glob("BENCH_*.json")):
                dst = snapshot / "bench" / src.name
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)
                artifacts[f"bench/{src.name}"] = _artifact_entry(dst)
                if src.name in _BENCH_GATES:
                    gates.append(src.name)
            recompute["bench"] = {"dir": "bench", "gated": gates}

        if "traces" in include:
            specs = (
                list(trace_specs)
                if trace_specs is not None
                else [dict(s) for s in _default_specs()]
            )
            summary = _trace_summaries(specs)
            dst = snapshot / TRACES_SUMMARY
            dst.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(dst, json.dumps(summary, indent=2) + "\n")
            artifacts[TRACES_SUMMARY] = _artifact_entry(dst)
            recompute["traces"] = {"path": TRACES_SUMMARY}

        manifest = Manifest(
            schema=PROVENANCE_SCHEMA,
            created=utc_now(),
            git_sha=git_sha(),
            config_digest=config_digest(cfg),
            code_fingerprint=code_fingerprint(),
            artifacts=artifacts,
            recompute=recompute,
        )
        manifest.save(snapshot)
        if obs.enabled():
            obs.counter("provenance.freezes").inc()
            obs.counter("provenance.artifacts.frozen").inc(len(artifacts))
    return manifest


def _default_specs():
    from repro.traces.summary import DEFAULT_REPLAY_SPECS

    return DEFAULT_REPLAY_SPECS


def _artifact_entry(path: pathlib.Path) -> Dict[str, object]:
    return {"sha256": sha256_file(path), "bytes": path.stat().st_size}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _check_hashes(
    snapshot: pathlib.Path, manifest: Manifest
) -> List[ProvenanceCheck]:
    checks = []
    for rel, entry in sorted(manifest.artifacts.items()):
        path = snapshot / rel
        if not path.is_file():
            checks.append(
                ProvenanceCheck(
                    check_id=f"hash:{rel}",
                    passed=False,
                    residual=float("inf"),
                    detail="artifact missing from snapshot",
                )
            )
            continue
        digest = sha256_file(path)
        ok = digest == str(entry.get("sha256"))
        checks.append(
            ProvenanceCheck(
                check_id=f"hash:{rel}",
                passed=ok,
                residual=0.0 if ok else float("inf"),
                detail="sha256 matches"
                if ok
                else f"sha256 {digest[:12]} != manifested "
                f"{str(entry.get('sha256'))[:12]}",
            )
        )
    return checks


def _check_golden(
    snapshot: pathlib.Path, spec: Mapping[str, object], cfg: PaperConfig
) -> List[ProvenanceCheck]:
    from repro.models import VariableLoadModel

    path = snapshot / str(spec["path"])
    try:
        frozen = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [
            ProvenanceCheck(
                check_id="golden:load",
                passed=False,
                residual=float("inf"),
                detail=f"cannot read frozen golden pins: {exc}",
            )
        ]
    figure_loads = {
        "figure2": "poisson",
        "figure3": "exponential",
        "figure4": "algebraic",
    }
    checks = []
    for figure in spec.get("figures", []):
        section = frozen.get(figure)
        if section is None:
            checks.append(
                ProvenanceCheck(
                    check_id=f"golden:{figure}",
                    passed=False,
                    residual=float("inf"),
                    detail="section missing from frozen figures.json",
                )
            )
            continue
        model = VariableLoadModel(
            cfg.load(figure_loads[figure]), cfg.utility("adaptive")
        )
        capacities = section["capacity"]
        got = [model.performance_gap(c) for c in capacities]
        residual = GOLDEN.residual(got, section["delta"])
        checks.append(
            ProvenanceCheck(
                check_id=f"golden:{figure}:delta",
                passed=residual <= 1.0,
                residual=residual,
                detail=f"recomputed delta at {len(capacities)} capacities, "
                f"residual {residual:.3g}",
            )
        )
    if spec.get("shared_tables"):
        section = frozen.get("algebraic_shared_tables")
        if section is None:
            checks.append(
                ProvenanceCheck(
                    check_id="golden:algebraic_shared_tables",
                    passed=False,
                    residual=float("inf"),
                    detail="section missing from frozen figures.json",
                )
            )
        else:
            shared = VariableLoadModel(
                cfg.load("algebraic"), cfg.utility("adaptive")
            )
            got = [shared.best_effort(c) for c in section["capacity"]]
            residual = GOLDEN.residual(got, section["best_effort"])
            checks.append(
                ProvenanceCheck(
                    check_id="golden:algebraic_shared_tables:best_effort",
                    passed=residual <= 1.0,
                    residual=residual,
                    detail=f"residual {residual:.3g}",
                )
            )
    return checks


def _check_bench(
    snapshot: pathlib.Path, spec: Mapping[str, object]
) -> List[ProvenanceCheck]:
    checks = []
    for name in spec.get("gated", []):
        description, predicate = _BENCH_GATES[name]
        path = snapshot / str(spec.get("dir", "bench")) / name
        try:
            frozen = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            checks.append(
                ProvenanceCheck(
                    check_id=f"bench:{name}",
                    passed=False,
                    residual=float("inf"),
                    detail=f"cannot read frozen bench file: {exc}",
                )
            )
            continue
        try:
            ok = bool(predicate(frozen))
        except (KeyError, TypeError, ValueError) as exc:
            ok = False
            description = f"predicate unreadable ({exc})"
        checks.append(
            ProvenanceCheck(
                check_id=f"bench:{name}",
                passed=ok,
                residual=0.0 if ok else float("inf"),
                detail=description,
            )
        )
    return checks


def _check_traces(
    snapshot: pathlib.Path, spec: Mapping[str, object]
) -> List[ProvenanceCheck]:
    from repro.traces.summary import SPEC_KEYS, replay_summary

    path = snapshot / str(spec["path"])
    try:
        frozen = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [
            ProvenanceCheck(
                check_id="traces:load",
                passed=False,
                residual=float("inf"),
                detail=f"cannot read frozen replay summaries: {exc}",
            )
        ]
    checks = []
    for entry in frozen.get("replays", []):
        label = f"traces:{entry.get('workload', '?')}:seed{entry.get('seed')}"
        try:
            replay_spec = {key: entry[key] for key in SPEC_KEYS}
        except KeyError as exc:
            checks.append(
                ProvenanceCheck(
                    check_id=label,
                    passed=False,
                    residual=float("inf"),
                    detail=f"frozen summary missing spec key {exc}",
                )
            )
            continue
        fresh = replay_summary(replay_spec)
        quantities = ("best_effort", "reservation", "gap", "mean_census")
        residual = GOLDEN.residual(
            [fresh[q] for q in quantities],
            [entry[q] for q in quantities],
        )
        flows_match = int(fresh["flows"]) == int(entry["flows"])
        passed = residual <= 1.0 and flows_match
        checks.append(
            ProvenanceCheck(
                check_id=label,
                passed=passed,
                residual=residual if flows_match else float("inf"),
                detail=(
                    f"recomputed {fresh['flows']} flows, residual "
                    f"{residual:.3g}"
                    if flows_match
                    else f"flow count drifted: recomputed {fresh['flows']}, "
                    f"frozen {entry['flows']}"
                ),
            )
        )
    return checks


def verify(
    snapshot_dir, *, config: Optional[PaperConfig] = None
) -> ProvenanceReport:
    """Re-hash, re-gate and recompute one snapshot; report every check.

    Structural problems (no manifest, bad schema) raise
    :class:`~repro.errors.ProvenanceError`; *drift* — hash mismatches,
    failed gate predicates, recomputed numbers outside tolerance — is
    returned as failing checks so the whole divergence is visible in
    one run.  The config digest is re-derived and compared: frozen
    numbers are only meaningful against the config that produced them.
    """
    snapshot = pathlib.Path(snapshot_dir)
    manifest = Manifest.load(snapshot)
    cfg = DEFAULT_CONFIG if config is None else config
    checks: List[ProvenanceCheck] = []
    notes: List[str] = []

    with obs.span("provenance.verify", snapshot=str(snapshot)):
        digest = config_digest(cfg)
        config_ok = digest == manifest.config_digest
        checks.append(
            ProvenanceCheck(
                check_id="config_digest",
                passed=config_ok,
                residual=0.0 if config_ok else float("inf"),
                detail="verifying config matches the freezing config"
                if config_ok
                else f"config drifted: {digest[:12]} != frozen "
                f"{manifest.config_digest[:12]}",
            )
        )
        if code_fingerprint() != manifest.code_fingerprint:
            notes.append(
                "code fingerprint differs from freeze time (expected "
                "across commits); recompute checks below are the "
                "authoritative drift signal"
            )

        checks.extend(_check_hashes(snapshot, manifest))
        if "golden" in manifest.recompute:
            checks.extend(
                _check_golden(snapshot, manifest.recompute["golden"], cfg)
            )
        if "bench" in manifest.recompute:
            checks.extend(_check_bench(snapshot, manifest.recompute["bench"]))
        if "traces" in manifest.recompute:
            checks.extend(
                _check_traces(snapshot, manifest.recompute["traces"])
            )

        report = ProvenanceReport(
            snapshot=str(snapshot), checks=tuple(checks), notes=tuple(notes)
        )
        if obs.enabled():
            obs.counter("provenance.verifies").inc()
            obs.counter("provenance.checks.evaluated").inc(len(checks))
            if not report.ok:
                obs.counter("provenance.checks.failed").inc(
                    len(report.failures)
                )
        obs.emit(
            "provenance.verify",
            snapshot=str(snapshot),
            ok=report.ok,
            checks=len(checks),
            failed=[c.check_id for c in report.failures],
        )
    return report
