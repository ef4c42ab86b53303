"""Load test — the emulator service under concurrent clients.

PR 8's tentpole claim: the paper's headline quantities are servable at
interactive rates because a certified Chebyshev surface answers a
point query in microseconds where the exact per-point path costs
hundreds.  This benchmark measures three things and gates two:

* **point speedup** (gated ≥ 50x): ``EmulatorService.point`` versus
  the exact per-point solver path (`performance_gap` et al.) on the same
  random in-domain capacities, both warm — the per-query cost a
  non-emulated service would pay.
* **sustained throughput** (gated ≥ 1000 req/s): ``CLIENTS``
  keep-alive HTTP clients hammering ``GET /v1/point`` concurrently
  against a live :class:`~repro.service.http.BackgroundServer`;
  requests/s is total-requests over wall time, with p50/p99 latency
  recorded per request (informational — machine facts).
* **served accuracy** (hard assertion): a random sample of served
  points must agree with the exact batch solver within each surface's
  certified bound, and a burst of out-of-domain queries must come
  back ``source: exact`` — the fallback ladder working under load.

Results land in ``BENCH_service.json`` at the repository root and
``benchmarks/results/service_load.txt``; the gated ratios append to
the PR-6 bench-history ledger (``obs regress`` guards them in the CI
``service`` job).  Journal events (service lifecycle + fallbacks) are
captured to ``benchmarks/results/service_events.jsonl`` for artifact
upload.

``REPRO_BENCH_FULL=1`` stretches the load phase ~8x (the nightly
longer-horizon run); the default finishes in a few seconds.

Run standalone (``python benchmarks/bench_service.py``) or via the
harness (``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Dict, List

import numpy as np

from repro import obs
from repro.emulator import exact_values
from repro.experiments.params import DEFAULT_CONFIG
from repro.runner.cache import ResultCache
from repro.service import BackgroundServer, EmulatorService, ServiceClient

#: The acceptance targets from ISSUE 8.
TARGET_POINT_SPEEDUP = 50.0
TARGET_RPS = 1000.0

#: Concurrent keep-alive clients (independent connections).
CLIENTS = 8

#: Requests per client: the default is a smoke-scale load; the nightly
#: full run stretches the horizon so throughput decay would show.
REQUESTS_PER_CLIENT = 300
REQUESTS_PER_CLIENT_FULL = 2500

#: Point-speedup measurement size (exact side dominates the cost).
SPEEDUP_POINTS = 120

#: Accuracy spot-check sample per (quantity, load) surface.
ACCURACY_POINTS = 25

#: Fresh-state repetitions per timed path; the minimum is reported.
REPEATS = 2

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_service.json"
HISTORY_PATH = ROOT / "benchmarks" / "results" / "history.jsonl"
EVENTS_PATH = ROOT / "benchmarks" / "results" / "service_events.jsonl"

#: Ledger series (repro.obs/ledger/v1).  The two ratios gate —
#: requests/s under fixed concurrency and the per-point speedup are
#: machine-transferable enough for the robust median/MAD gate — while
#: raw latencies ride along informationally.
GATED_METRICS = ("service_requests_per_sec", "service_point_speedup")


def _full() -> bool:
    return bool(os.environ.get("REPRO_BENCH_FULL"))


def _service() -> EmulatorService:
    cache_root = ROOT / ".repro-cache"
    return EmulatorService(DEFAULT_CONFIG, cache=ResultCache(cache_root))


def _measure_point_speedup(service: EmulatorService) -> Dict:
    """Per-point exact path vs the served surface path, min-of-N.

    The exact side rebuilds its model every repetition: the model's
    per-capacity memo would otherwise serve the second pass from
    cache and time a dictionary lookup instead of a solver run.  The
    process-wide shared series tables stay warm, like a long-running
    service.  The emulated side keeps one service instance — that IS
    the steady state being claimed.
    """
    from repro.models import VariableLoadModel

    rng = np.random.default_rng(20260807)
    xs = rng.uniform(30.0, 390.0, SPEEDUP_POINTS)
    # warm shared state on both sides (series tables, surface bank,
    # numpy dispatch) before any timed pass
    for x in xs[:3]:
        exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [float(x)])
        service.point("delta", "poisson", "adaptive", float(x))
    t_exact = float("inf")
    for _ in range(REPEATS):
        model = VariableLoadModel(
            DEFAULT_CONFIG.load("poisson"), DEFAULT_CONFIG.utility("adaptive")
        )
        t0 = time.perf_counter()
        for x in xs:
            model.performance_gap(float(x))
        t_exact = min(t_exact, time.perf_counter() - t0)
    t_emul = float("inf")
    emul_rounds = 20  # the emulated side is microseconds; average it up
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(emul_rounds):
            for x in xs:
                service.point("delta", "poisson", "adaptive", float(x))
        t_emul = min(t_emul, (time.perf_counter() - t0) / emul_rounds)
    exact_us = t_exact / SPEEDUP_POINTS * 1e6
    emul_us = t_emul / SPEEDUP_POINTS * 1e6
    return {
        "points": SPEEDUP_POINTS,
        "exact_us_per_point": round(exact_us, 2),
        "emulated_us_per_point": round(emul_us, 2),
        "speedup": round(exact_us / emul_us, 1),
    }


def _measure_throughput(service: EmulatorService) -> Dict:
    """Concurrent keep-alive clients against a live HTTP server."""
    requests_per_client = (
        REQUESTS_PER_CLIENT_FULL if _full() else REQUESTS_PER_CLIENT
    )
    total = CLIENTS * requests_per_client
    latencies: List[List[float]] = [[] for _ in range(CLIENTS)]
    errors: List[int] = [0] * CLIENTS

    with BackgroundServer(service) as server:
        host, port = server.address

        def worker(idx: int) -> None:
            lat = latencies[idx]
            with ServiceClient(host, port) as client:
                for i in range(requests_per_client):
                    # sweep the domain so requests are not one cached line
                    x = 30.0 + ((idx * 37 + i) % 350)
                    t0 = time.perf_counter()
                    try:
                        client.request(
                            "GET",
                            "/v1/point?quantity=delta&load=poisson"
                            f"&utility=adaptive&x={x}",
                        )
                    except Exception:
                        errors[idx] += 1
                        continue
                    lat.append(time.perf_counter() - t0)

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"client-{i}")
            for i in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

    lat = np.array([v for chunk in latencies for v in chunk])
    failed = int(sum(errors))
    return {
        "clients": CLIENTS,
        "requests": total,
        "failed": failed,
        "wall_seconds": round(wall, 3),
        "requests_per_sec": round((total - failed) / wall, 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
        "max_ms": round(float(np.max(lat)) * 1e3, 3),
    }


def _measure_accuracy(service: EmulatorService) -> Dict:
    """Served values vs the exact batch solver, in bound units.

    Also drives the out-of-domain fallback ladder: queries past the
    fitted range must come back ``source: exact`` and agree with the
    solver exactly.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_case = "n/a"
    checked = 0
    for surface in service.bank.surfaces.values():
        if surface.log_x:
            xs = np.exp(
                rng.uniform(
                    np.log(surface.lo), np.log(surface.hi), ACCURACY_POINTS
                )
            )
        else:
            xs = rng.uniform(surface.lo, surface.hi, ACCURACY_POINTS)
        served = np.array(
            [
                service.point(
                    surface.quantity, surface.load, surface.utility, float(x)
                )["value"]
                for x in xs
            ]
        )
        exact = exact_values(
            surface.quantity,
            DEFAULT_CONFIG,
            surface.load,
            surface.utility,
            xs,
        )
        residual = float(np.max(np.abs(served - exact))) / surface.certified_bound
        checked += xs.size
        if residual > worst:
            worst, worst_case = residual, surface.key
    # out-of-domain burst: beyond every fitted capacity domain
    fallback = service.batch(
        "delta", "poisson", "adaptive", [450.0, 600.0, 900.0]
    )
    return {
        "points_checked": checked,
        "worst_residual_bound_units": round(worst, 4),
        "worst_surface": worst_case,
        "fallback_source": fallback["source"],
    }


def measure() -> Dict:
    started_journal = obs.journal() is None
    if started_journal:
        EVENTS_PATH.parent.mkdir(exist_ok=True)
        obs.open_journal(EVENTS_PATH, bench="bench_service")
    obs.reset()
    obs.enable()
    try:
        service = _service()
        speedup = _measure_point_speedup(service)
        throughput = _measure_throughput(service)
        accuracy = _measure_accuracy(service)
    finally:
        obs.disable()
        if started_journal:
            obs.close_journal()
    return {
        "generated_by": "benchmarks/bench_service.py",
        "config": {
            "kbar": DEFAULT_CONFIG.kbar,
            "kappa": DEFAULT_CONFIG.kappa,
            "z": DEFAULT_CONFIG.z,
            "clients": CLIENTS,
            "target_point_speedup": TARGET_POINT_SPEEDUP,
            "target_rps": TARGET_RPS,
            "repeats": REPEATS,
        },
        "full_horizon": _full(),
        "point_speedup": speedup,
        "throughput": throughput,
        "accuracy": accuracy,
    }


def render(stats: Dict) -> str:
    s = stats["point_speedup"]
    t = stats["throughput"]
    a = stats["accuracy"]
    return "\n".join(
        [
            f"point query: exact {s['exact_us_per_point']:.0f}us vs "
            f"emulated {s['emulated_us_per_point']:.1f}us = "
            f"{s['speedup']:.0f}x (target >= {TARGET_POINT_SPEEDUP:.0f}x)",
            f"throughput: {t['requests']} requests, {t['clients']} clients, "
            f"{t['requests_per_sec']:.0f} req/s "
            f"(target >= {TARGET_RPS:.0f}), p50 {t['p50_ms']:.2f}ms, "
            f"p99 {t['p99_ms']:.2f}ms, {t['failed']} failed",
            f"accuracy: {a['points_checked']} served points, worst "
            f"{a['worst_residual_bound_units']:.3f} certified bounds "
            f"({a['worst_surface']}); out-of-domain burst -> "
            f"{a['fallback_source']}",
        ]
    )


def check(stats: Dict) -> None:
    """Assert the acceptance criteria from the issue."""
    s = stats["point_speedup"]
    assert s["speedup"] >= TARGET_POINT_SPEEDUP, (
        f"point speedup {s['speedup']:.1f}x below the "
        f"{TARGET_POINT_SPEEDUP:.0f}x target"
    )
    t = stats["throughput"]
    assert t["failed"] == 0, f"{t['failed']} requests failed under load"
    assert t["requests_per_sec"] >= TARGET_RPS, (
        f"throughput {t['requests_per_sec']:.0f} req/s below the "
        f"{TARGET_RPS:.0f} req/s target"
    )
    a = stats["accuracy"]
    assert a["worst_residual_bound_units"] <= 1.0, (
        f"served point drifted past its certified bound: "
        f"{a['worst_surface']} at {a['worst_residual_bound_units']:.3f}"
    )
    assert a["fallback_source"] == "exact", (
        f"out-of-domain burst answered from {a['fallback_source']!r}, "
        "expected the exact fallback"
    )


def write_json(stats: Dict) -> None:
    JSON_PATH.write_text(json.dumps(stats, indent=2) + "\n")


def append_history(stats: Dict) -> None:
    """Ledger entries: gated ratios + informational latencies."""
    from repro.obs import ledger

    digest = ledger.digest_config(stats["config"])
    entries = [
        ledger.make_entry(
            "bench_service",
            "service_requests_per_sec",
            stats["throughput"]["requests_per_sec"],
            direction=ledger.HIGHER_IS_BETTER,
            config_digest=digest,
            unit="req/s",
        ),
        ledger.make_entry(
            "bench_service",
            "service_point_speedup",
            stats["point_speedup"]["speedup"],
            direction=ledger.HIGHER_IS_BETTER,
            config_digest=digest,
            unit="x",
        ),
        ledger.make_entry(
            "bench_service",
            "service_point_p50_ms",
            stats["throughput"]["p50_ms"],
            direction=ledger.LOWER_IS_BETTER,
            config_digest=digest,
            unit="ms",
            gated=False,
        ),
        ledger.make_entry(
            "bench_service",
            "service_point_p99_ms",
            stats["throughput"]["p99_ms"],
            direction=ledger.LOWER_IS_BETTER,
            config_digest=digest,
            unit="ms",
            gated=False,
        ),
    ]
    ledger.append_entries(HISTORY_PATH, entries)


def test_service_load(benchmark, record):
    from benchmarks.conftest import run_once

    stats = run_once(benchmark, measure)
    record("service_load", render(stats))
    write_json(stats)
    check(stats)
    append_history(stats)


def main() -> int:
    stats = measure()
    text = render(stats)
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "service_load.txt").write_text(f"# service_load\n{text}\n")
    write_json(stats)
    print(text)
    check(stats)
    append_history(stats)
    print("service load targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
