"""``compare``: judge a change against its parent by alternating runs.

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

Both directories are full checkouts.  For every workload in
``BENCHMARK.json`` the harness runs 10 pairs, each pair one untraced run
of each checkout on the same seed and at the benchmark's run length,
alternating which side goes first.  Each checkout's ledger is restored
afterwards, so a comparison leaves both trees as it found them.  Per
end-to-end metric:

- **gain**: the change wins 9 pairs in 10 (ties count for neither) and
  the medians differ by more than the parent's own interquartile
  distance;
- **regression**: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
- **unresolved**: the parent's spread is wider than the bound and not
  every run of the change beats every run of the parent;
- otherwise **same**.

It prints one row per workload with each side's failure share, and
exits 1 on any regression or failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import pathlib
import subprocess
import sys
from typing import Dict, List

from perfbench import stats
from perfbench.harness import LEDGER, ROOT, load_spec

#: Pairs of runs per workload, and the share of them the change must win
#: to claim a gain.
PAIRS = 10
WIN_SHARE = 0.9

#: Seed of the first pair; pair ``i`` runs both sides on ``FIRST_SEED + i``.
FIRST_SEED = 1000

RUN_TIMEOUT_S = 600.0


@contextlib.contextmanager
def ledger_kept(root: pathlib.Path):
    """Restore the checkout's ledger, which its runs append to, on exit."""
    path = root / LEDGER.relative_to(ROOT)
    saved = path.read_bytes() if path.exists() else None
    try:
        yield
    finally:
        if saved is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(saved)


def run_once(root: pathlib.Path, spec: dict, workload: str, seed: int) -> dict:
    """One untraced run of the checkout at ``root``; its JSON result line."""
    argv = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    if argv[0] == "python3":
        argv[0] = sys.executable
    done = subprocess.run(
        argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: {workload} seed {seed} printed no result:\n{done.stderr}")
    return json.loads(lines[-1])


def verdict(metric: dict, parent: List[float], change: List[float]) -> str:
    """One metric's verdict (see the module docstring)."""
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    base, now = stats.median(parent), stats.median(change)
    q1, q3 = stats.quartiles(parent)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    won = wins >= math.ceil(WIN_SHARE * len(parent))
    if won and better(now, base) and abs(now - base) > q3 - q1:
        return f"gain {now / base - 1:+.1%} ({wins}/{len(parent)})"
    if better(base, now) and abs(now - base) / abs(base) > metric["bound"]:
        return f"regression {now / base - 1:+.1%}"
    if stats.iqr_share(parent) > metric["bound"] and not all(
        better(c, p) for c in change for p in parent
    ):
        return "unresolved"
    return "same"


def compare_workload(parent_root, change_root, spec: dict, workload: str) -> Dict[str, object]:
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = [("parent", parent_root), ("change", change_root)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_once(root, spec, workload, FIRST_SEED + i))
    verdicts = {
        m["name"]: verdict(
            m,
            [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][m["name"]]["value"] for r in runs["change"]],
        )
        for m in spec["end_to_end"]
    }
    failure_share = {
        side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        for side, rs in runs.items()
    }
    return {"verdicts": verdicts, "failure_share": failure_share}


def render_row(workload: str, result: Dict[str, object]) -> str:
    verdicts = result["verdicts"]
    moved = ", ".join(
        f"{name} {text}" for name, text in verdicts.items() if text != "same"
    )
    shares = result["failure_share"]
    return (
        f"{workload:<8} | {moved or 'no change beyond bounds'} | failures "
        f"parent {shares['parent']:.2%} change {shares['change']:.2%}"
    )


def main(argv) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py compare")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    bad = False
    print(f"{'workload':<8} | verdicts (change vs parent) | failure share")
    for workload in (w["name"] for w in spec["workloads"]):
        with ledger_kept(args.parent), ledger_kept(args.change):
            result = compare_workload(args.parent, args.change, spec, workload)
        print(render_row(workload, result), flush=True)
        bad |= any(v.startswith("regression") for v in result["verdicts"].values())
        bad |= result["failure_share"]["change"] > 0.0
    return 1 if bad else 0
