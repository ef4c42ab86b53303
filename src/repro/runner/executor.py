"""Fan experiments out over worker processes, through the result cache.

The flow of :func:`run_many`:

1. Resolve ids against the registry (unknown ids fail fast, before
   any work is spawned).
2. Sweep orphaned temp files, then probe the cache for every id —
   hits are served instantly and never reach a worker.
3. Fan the misses out over a ``concurrent.futures.ProcessPoolExecutor``
   (or run them inline when ``jobs == 1`` / a single miss — same code
   path, no pool overhead).  Each worker computes its experiment,
   writes the cache entry **atomically** itself, and ships back the
   entry plus (when observing) its own metrics snapshot and span
   trees, every span tagged ``worker=<pid>``.
4. Merge worker metrics/spans into the parent's active obs sinks, so
   ``--profile`` renders one aggregate report for the whole run.

Workers are deterministic: the same (experiment id, config, code)
triple always produces a byte-identical cache entry, whichever worker
computes it and however the pool schedules them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.experiments import registry
from repro.experiments.params import PaperConfig
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.tracing import SpanRecord, Tracer
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, decode_result

#: Outcome statuses, in the order the text report lists them.
STATUS_CACHED = "cached"
STATUS_COMPUTED = "computed"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one experiment in a batch run."""

    exp_id: str
    status: str
    seconds: float
    worker: Optional[int] = None
    error: Optional[str] = None
    entry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True unless the experiment raised."""
        return self.status != STATUS_ERROR

    def result(self) -> object:
        """The decoded experiment result (``None`` for errors)."""
        if self.entry is None:
            return None
        return decode_result(self.entry["result_kind"], self.entry["result"])

    def to_dict(self) -> dict:
        """JSON-ready summary row (without the payload)."""
        out: Dict[str, object] = {
            "id": self.exp_id,
            "status": self.status,
            "seconds": self.seconds,
            "ok": self.ok,
        }
        if self.worker is not None:
            out["worker"] = self.worker
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class RunReport:
    """Everything :func:`run_many` did, plus aggregate observability."""

    outcomes: List[RunOutcome]
    jobs: int
    wall_seconds: float
    cache_dir: Optional[str]
    metrics: Optional[dict] = None
    worker_spans: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every experiment succeeded."""
        return all(o.ok for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        """``{status: how_many}`` over the outcomes."""
        out: Dict[str, int] = {}
        for o in self.outcomes:
            out[o.status] = out.get(o.status, 0) + 1
        return out

    def to_dict(self) -> dict:
        """JSON-ready report (summary rows, not payloads)."""
        out: Dict[str, object] = {
            "schema": "repro.runner.report/v1",
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "counts": self.counts(),
            "experiments": [o.to_dict() for o in self.outcomes],
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


def _compute_one(
    exp_id: str,
    config: Optional[PaperConfig],
    cache_dir: Optional[str],
) -> dict:
    """Compute one experiment; the unit of work on both code paths.

    Runs in a worker process (via :func:`_worker_main`) or inline in
    the parent when no pool is needed.  Returns a picklable dict; the
    cache entry inside it was already written atomically, so a kill
    between compute and return costs only recomputation, never a
    poisoned cache.
    """
    pid = os.getpid()
    exp = registry.get(exp_id)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    start = time.perf_counter()
    obs.emit("runner.task.start", id=exp_id, worker=pid)
    try:
        with obs.span("experiment", id=exp_id, worker=pid):
            result = exp.run(config)
        if cache is not None:
            entry = cache.store(exp, config, result)
        else:
            from repro.runner.cache import build_entry

            entry = build_entry(exp, config, result)
    except Exception as exc:  # a batch survives one broken experiment
        seconds = time.perf_counter() - start
        obs.emit(
            "runner.task.finish",
            id=exp_id,
            worker=pid,
            status=STATUS_ERROR,
            seconds=seconds,
            error=f"{type(exc).__name__}: {exc}",
        )
        return {
            "exp_id": exp_id,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": seconds,
            "worker": pid,
            "entry": None,
        }
    seconds = time.perf_counter() - start
    obs.emit(
        "runner.task.finish",
        id=exp_id,
        worker=pid,
        status=STATUS_COMPUTED,
        seconds=seconds,
    )
    return {
        "exp_id": exp_id,
        "ok": True,
        "error": None,
        "seconds": seconds,
        "worker": pid,
        "entry": entry,
    }


def _worker_main(
    exp_id: str,
    config: Optional[PaperConfig],
    cache_dir: Optional[str],
    observe: bool,
) -> dict:
    """Worker-process entry point: isolate obs, compute, snapshot.

    Each worker collects into its **own** registry and tracer (never a
    sink inherited from the parent's fork image), and ships the
    snapshot/spans home in the return value for merging.  When the
    parent has a journal open it shares the path via
    ``REPRO_EVENTS_JSON``; the worker appends to the same file
    (line-atomic), emitting a heartbeat around each task so a hung or
    killed worker is visible in the journal as a heartbeat with no
    matching ``runner.task.finish``.
    """
    if observe:
        obs.enable(MetricsRegistry(), Tracer())
    else:
        obs.disable()
    obs.ensure_journal_from_env()
    obs.emit("runner.worker.heartbeat", worker=os.getpid(), task=exp_id)
    out = _compute_one(exp_id, config, cache_dir)
    if observe:
        out["metrics"] = obs.snapshot()
        out["spans"] = [root.to_dict() for root in obs.trace_roots()]
        obs.disable()
    journal = obs.journal()
    if journal is not None:
        journal.close()
    return out


def _outcome_from_worker(raw: dict) -> RunOutcome:
    return RunOutcome(
        exp_id=raw["exp_id"],
        status=STATUS_COMPUTED if raw["ok"] else STATUS_ERROR,
        seconds=raw["seconds"],
        worker=raw["worker"],
        error=raw["error"],
        entry=raw["entry"],
    )


def run_many(
    ids: Optional[Sequence[str]] = None,
    *,
    config: Optional[PaperConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    force: bool = False,
) -> RunReport:
    """Run a batch of experiments in parallel with result caching.

    Parameters
    ----------
    ids:
        Experiment ids to run (default: every registered experiment,
        in registry order).  Unknown ids raise ``KeyError`` before any
        work starts.
    config:
        The :class:`PaperConfig` evaluated (``None`` = each
        generator's default — hashed as its own cache address).
    jobs:
        Worker processes.  ``1`` runs inline in this process.
    cache_dir / use_cache / force:
        ``use_cache=False`` neither reads nor writes the cache.
        ``force=True`` skips lookups but still writes fresh entries.

    Workers collect metrics and spans, merged into the parent's obs
    sinks, whenever :func:`repro.obs.enabled` says so in the parent
    when the run starts.

    Returns a :class:`RunReport`; outcomes are in requested-id order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if ids is None:
        ids = list(registry.EXPERIMENTS)
    else:
        ids = list(ids)
    experiments = [registry.get(exp_id) for exp_id in ids]  # fail fast

    observe = obs.enabled()
    cache = ResultCache(cache_dir) if (use_cache and cache_dir) else None
    effective_dir = str(cache.root) if cache is not None else None

    wall_start = time.perf_counter()
    obs.emit(
        "runner.batch.start",
        ids=list(ids),
        jobs=jobs,
        cache_dir=effective_dir,
        force=force,
    )
    outcomes: Dict[str, RunOutcome] = {}
    misses: List[str] = []
    if cache is not None:
        cache.sweep()
    for exp in experiments:
        if cache is not None and not force:
            entry = cache.load(exp, config)
            if entry is not None:
                outcomes[exp.exp_id] = RunOutcome(
                    exp_id=exp.exp_id,
                    status=STATUS_CACHED,
                    seconds=0.0,
                    entry=entry,
                )
                continue
        misses.append(exp.exp_id)

    worker_metrics: List[dict] = []
    worker_spans: List[dict] = []

    def collect(raw: dict) -> None:
        outcomes[raw["exp_id"]] = _outcome_from_worker(raw)
        if raw.get("metrics"):
            worker_metrics.append(raw["metrics"])
        worker_spans.extend(raw.get("spans") or [])

    if jobs == 1 or len(misses) <= 1:
        # inline: same unit of work, no pool/pickling overhead; obs
        # collection lands directly in the parent's active sinks
        for exp_id in misses:
            raw = _compute_one(exp_id, config, effective_dir)
            collect(raw)
    else:
        with obs.share_journal_env(), ProcessPoolExecutor(
            max_workers=jobs
        ) as pool:
            futures = {
                pool.submit(
                    _worker_main, exp_id, config, effective_dir, observe
                ): exp_id
                for exp_id in misses
            }
            for future in as_completed(futures):
                collect(future.result())

    # one aggregate report: merge worker registries/spans into the
    # parent's active sinks so --profile covers the whole run
    merged = merge_snapshots(worker_metrics) if worker_metrics else None
    if observe:
        for snap in worker_metrics:
            obs.registry().absorb_snapshot(snap)
        for span_dict in worker_spans:
            obs.tracer().adopt(SpanRecord.from_dict(span_dict))

    counts: Dict[str, int] = {}
    for o in outcomes.values():
        counts[o.status] = counts.get(o.status, 0) + 1
    obs.emit(
        "runner.batch.finish",
        jobs=jobs,
        wall_seconds=time.perf_counter() - wall_start,
        counts=counts,
    )

    return RunReport(
        outcomes=[outcomes[exp_id] for exp_id in ids],
        jobs=jobs,
        wall_seconds=time.perf_counter() - wall_start,
        cache_dir=effective_dir,
        metrics=merged,
        worker_spans=worker_spans,
    )
