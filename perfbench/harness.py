"""One workload run: the table, the ledger lines, the JSON result line.

Untraced runs (``--trace 0``) give the end-to-end metrics and append
their medians to the bench-history ledger.  Traced runs (``--trace 1``)
give the per-layer metrics and write a Chrome trace to
``.perfbench/<workload>-seed<n>.trace.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import shutil
import signal
import sys
import tempfile
from typing import Dict, List

from perfbench import OUT, ROOT, layers, paper, procs, replay, service, speed, verify
from perfbench.report import Outcome, render

WORKLOADS = {"paper": paper, "verify": verify, "service": service, "replay": replay}

#: Bench-history ledger the untraced runs append to.
LEDGER = ROOT / "perfbench" / "results" / "history.jsonl"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def ledger_entries(
    workload: str, seed: int, seconds: float, metrics: Dict[str, float], spec: dict,
    calibration: float,
) -> List[dict]:
    """``repro.obs/ledger/v1`` lines for one untraced run."""
    from repro.obs import ledger
    from repro.obs.events import git_sha

    # outside a git checkout git would search parent directories
    sha = git_sha() if (ROOT / ".git").exists() else "unknown"
    size = dataclasses.asdict(WORKLOADS[workload].SIZES["full"])
    digest = ledger.digest_config(
        {"workload": workload, "size": size, "seed": seed, "seconds": seconds}
    )
    entries = [
        ledger.make_entry(
            f"harness.{workload}",
            m["name"],
            metrics[m["name"]],
            direction=f"{m['better']}_is_better",
            config_digest=digest,
            unit=m["unit"],
            sha=sha,
        )
        for m in spec["end_to_end"]
    ]
    entries.append(
        ledger.make_entry(
            "harness",
            "calibration_ms",
            calibration,
            direction=ledger.LOWER_IS_BETTER,
            config_digest=ledger.digest_config({"probe": "perfbench.speed.measure"}),
            unit="ms",
            gated=False,
            sha=sha,
        )
    )
    return entries


def _trace_report(outcome: Outcome, workload: str, seed: int) -> str:
    """Write the Chrome trace; return the hotspot table for the log."""
    from repro.obs.traceview import hotspots, render_hotspots

    path = OUT / f"{workload}-seed{seed}.trace.json"
    problems = layers.write_chrome_trace(
        path, outcome.trace_groups, run_id=f"{workload}-seed{seed}"
    )
    outcome.failures += [f"chrome trace: {problem}" for problem in problems[:1]]
    roots = [root for _, group in outcome.trace_groups for root in group]
    return f"{render_hotspots(hotspots(roots), top=15)}\ntrace: {path}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one benchmark workload."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the children and servers it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    trace = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        # the speed probe, unscaled: how fast the machine itself ran
        calibration = None if trace else speed.measure() * 1e3
        module = WORKLOADS[args.workload]
        outcome = module.run(args.seed, args.seconds, trace, tmp)
    finally:
        procs.stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)

    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(names) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    trace_text = _trace_report(outcome, args.workload, args.seed) if trace else ""
    print(render(outcome, units))
    if trace_text:
        print(trace_text)
    else:
        from repro.obs import ledger

        ledger.append_entries(
            LEDGER,
            ledger_entries(
                args.workload, args.seed, args.seconds, outcome.metrics, spec, calibration
            ),
        )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]} for name in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.failed == 0 else 1
