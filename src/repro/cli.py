"""Command-line entry point: ``repro-experiments``.

Usage::

    repro-experiments list                 # show every experiment id
    repro-experiments run F3               # regenerate Figure 3's series
    repro-experiments run T1 --json        # Section 3.3 checkpoints, JSON
    repro-experiments run F4 --fast        # small grids for a quick look
    repro-experiments run F3 --profile     # + span hotspot table & metrics
    repro-experiments run F3 --cache-dir .repro-cache  # through the cache
    repro-experiments run-all --jobs 4     # every experiment, in parallel,
                                           # through the on-disk result cache
    repro-experiments run-all F2 T1 --force   # recompute just these two
    repro-experiments run-all --fast --no-cache --json  # time every experiment
    repro-experiments checkpoints          # the full paper-vs-measured table
    repro-experiments verify               # paper-invariant fast suite
    repro-experiments verify --suite deep --json   # + ensemble oracles
    repro-experiments export F3 --out fig  # CSV + gnuplot for Figure 3
    repro-experiments traces generate diurnal t.csv --rate 40 --horizon 240
    repro-experiments traces replay t.csv --capacity 44    # CRN-paired B/R/gap
    repro-experiments traces analyze t.csv                 # streamed verdict
    repro-experiments provenance freeze provenance         # snapshot + manifest
    repro-experiments provenance verify provenance         # recompute-verify
    repro-experiments run F3 --events-json run.jsonl   # + structured journal
    repro-experiments obs tail run.jsonl --follow      # live event stream
    repro-experiments obs hotspots trace.json          # per-span time table
    repro-experiments obs chrome-trace trace.json --out t.trace.json
    repro-experiments obs regress                      # bench-history gate
    repro-experiments obs ledger-check                 # ledger schema check
    repro-experiments emulate fit --out bank.json      # certify surfaces
    repro-experiments emulate check --bank bank.json   # re-verify bounds
    repro-experiments serve --port 8321                # HTTP query service
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import NoReturn, Optional, Sequence

from repro import obs
from repro.experiments import checkpoints, registry, report
from repro.experiments.params import DEFAULT_CONFIG, FAST_CONFIG
from repro.ioutils import atomic_write_text
from repro.obs import ledger

#: Where gated benchmarks append their headline metrics.
DEFAULT_HISTORY = "benchmarks/results/history.jsonl"


def _add_cache_args(
    parser: argparse.ArgumentParser, *, cache_dir_default: Optional[str]
) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=cache_dir_default,
        help=(
            f"result-cache directory (default: {cache_dir_default})"
            if cache_dir_default
            else "result-cache directory (default: caching off)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="skip cache lookups but still write fresh entries",
    )


def _add_simulation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replications",
        type=int,
        metavar="R",
        help=(
            "Monte Carlo replications for simulation experiments "
            "(default: the config's sim_replications)"
        ),
    )
    parser.add_argument(
        "--ci",
        type=float,
        metavar="HALFWIDTH",
        help=(
            "target CI half-width: simulation experiments add an adaptive "
            "run_until pass stopping at this precision"
        ),
    )


def _refuse(message: str) -> NoReturn:
    """Exit 2 with ``message`` as the one stderr line: a bad argument."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _simulation_config(config, args):
    """Fold ``--replications``/``--ci`` into the config (cache-addressed).

    The runner cache digests the whole :class:`PaperConfig`, so a
    replaced config re-addresses every cached entry automatically — no
    flag can ever be served a stale result computed at different
    simulation settings.
    """
    import dataclasses

    overrides = {}
    if getattr(args, "replications", None) is not None:
        if args.replications < 1:
            _refuse("--replications must be >= 1")
        overrides["sim_replications"] = args.replications
    if getattr(args, "ci", None) is not None:
        if not _positive(args.ci):
            _refuse("--ci must be finite and > 0")
        overrides["sim_ci_halfwidth"] = args.ci
    return dataclasses.replace(config, **overrides) if overrides else config


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect observability data and print the span hotspot table "
        "and the metrics",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write the recorded span tree as JSON to PATH",
    )
    parser.add_argument(
        "--events-json",
        metavar="PATH",
        help=(
            "append a structured event journal (JSONL) to PATH; "
            "inspect it with `obs tail`"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures and text-quoted numbers of Breslau & "
            "Shenker, 'Best-Effort versus Reservations' (SIGCOMM 1998)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every registered experiment")

    run = sub.add_parser("run", help="run one experiment by id")
    run.add_argument("experiment", help="experiment id (e.g. F2, T1, S5.1)")
    run.add_argument("--json", action="store_true", help="emit JSON instead of text")
    run.add_argument(
        "--fast", action="store_true", help="use the reduced grids (quick look)"
    )
    _add_simulation_args(run)
    _add_cache_args(run, cache_dir_default=None)
    _add_profile_args(run)

    run_all = sub.add_parser(
        "run-all",
        help="run many experiments in parallel through the result cache",
    )
    run_all.add_argument(
        "ids",
        nargs="*",
        metavar="ID",
        help="experiment ids (default: every registered experiment)",
    )
    run_all.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: run in-process)",
    )
    run_all.add_argument("--json", action="store_true", help="emit JSON instead of text")
    run_all.add_argument(
        "--fast", action="store_true", help="use the reduced grids (quick look)"
    )
    _add_simulation_args(run_all)
    _add_cache_args(run_all, cache_dir_default=".repro-cache")
    _add_profile_args(run_all)

    cp = sub.add_parser(
        "checkpoints", help="run every paper-vs-measured checkpoint"
    )
    cp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    cp.add_argument("--markdown", action="store_true", help="emit a markdown table")
    _add_profile_args(cp)

    verify = sub.add_parser(
        "verify",
        help="evaluate the paper-derived invariant catalogue "
        "(cross-engine differential oracles; see docs/VERIFY.md)",
    )
    verify.add_argument(
        "--suite",
        choices=["fast", "deep"],
        default="fast",
        help="fast: CI gate (~20 s); deep: adds the ensemble oracles",
    )
    verify.add_argument(
        "--only",
        nargs="+",
        metavar="ID",
        help="evaluate only these invariant ids (never cached)",
    )
    verify.add_argument(
        "--json", action="store_true", help="emit the JSON report instead of text"
    )
    verify.add_argument(
        "--fast-config",
        action="store_true",
        help="use the reduced grids (quick look; re-addresses the cache)",
    )
    _add_cache_args(verify, cache_dir_default=None)
    _add_profile_args(verify)

    mf = sub.add_parser(
        "meanfield",
        help="evaluate B(C)/R(C)/gap through the fluid-diffusion engine "
        "(O(1) in the population; refuses outside its validity envelope; "
        "see docs/MEANFIELD.md)",
    )
    mf.add_argument(
        "--load",
        choices=["poisson", "exponential", "algebraic"],
        default="poisson",
        help="census distribution (default: poisson; heavy tails are "
        "outside the envelope and refused)",
    )
    mf.add_argument(
        "--utility",
        choices=["adaptive", "rigid"],
        default="adaptive",
        help="utility function (default: adaptive)",
    )
    mf.add_argument(
        "--population",
        type=float,
        metavar="N",
        help="census mean (default: the config's kbar; re-addresses the cache)",
    )
    mf.add_argument(
        "--capacities",
        type=float,
        nargs="+",
        metavar="C",
        help="capacity grid (default: the config's capacity axis)",
    )
    mf.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    mf.add_argument(
        "--fast-config",
        action="store_true",
        help="use the reduced grids (quick look; re-addresses the cache)",
    )
    _add_cache_args(mf, cache_dir_default=None)
    _add_profile_args(mf)

    ex = sub.add_parser(
        "export", help="write a figure's series as CSV + gnuplot scripts"
    )
    ex.add_argument("experiment", help="figure id (F1-F4, S5.1, S5.2)")
    ex.add_argument("--out", default="figures", help="output directory")
    ex.add_argument(
        "--fast", action="store_true", help="use the reduced grids (quick look)"
    )

    traces_cmd = sub.add_parser(
        "traces",
        help="streaming flow traces: generate synthetic workloads, replay "
        "them through CRN-paired best-effort/reservation, analyze at "
        "constant memory",
    )
    traces_sub = traces_cmd.add_subparsers(dest="traces_command", required=True)

    tg = traces_sub.add_parser(
        "generate", help="write a seeded synthetic workload trace"
    )
    tg.add_argument(
        "workload",
        choices=["poisson", "diurnal", "bursty", "batch"],
        help="arrival-process shape",
    )
    tg.add_argument("out", help="output path (.csv file, or directory with --npz)")
    tg.add_argument("--rate", type=float, default=40.0, help="mean arrival rate")
    tg.add_argument("--horizon", type=float, default=240.0, help="trace horizon")
    tg.add_argument("--mu", type=float, default=1.0, help="flow departure rate")
    tg.add_argument("--seed", type=int, default=0, help="generator seed")
    tg.add_argument(
        "--chunk-flows",
        type=int,
        default=None,
        metavar="N",
        help="flows per generated chunk (default 65536)",
    )
    tg.add_argument(
        "--npz",
        action="store_true",
        help="write an npz segment directory instead of CSV",
    )

    trp = traces_sub.add_parser(
        "replay",
        help="stream a trace through the CRN-paired estimators and print "
        "B/R/gap with confidence intervals",
    )
    trp.add_argument("trace", help="trace path (CSV file or npz segment dir)")
    trp.add_argument(
        "--capacity", type=float, required=True, help="link capacity C"
    )
    trp.add_argument(
        "--utility",
        choices=["adaptive", "rigid"],
        default="adaptive",
        help="application utility class",
    )
    trp.add_argument(
        "--windows",
        type=int,
        default=16,
        help="measurement windows (= synthetic replications)",
    )
    trp.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="transient to exclude (default: 10%% of the horizon)",
    )
    trp.add_argument(
        "--chunk-flows",
        type=int,
        default=None,
        metavar="N",
        help="flows per streamed chunk when reading CSV (default 65536)",
    )
    trp.add_argument("--json", action="store_true", help="emit JSON")

    ta = traces_sub.add_parser(
        "analyze",
        help="streamed trace -> census identification -> architecture "
        "verdict (constant memory; accepts CSV or npz)",
    )
    ta.add_argument("trace", help="trace path (CSV file or npz segment dir)")
    ta.add_argument("--price", type=float, default=0.05, help="bandwidth price")
    ta.add_argument(
        "--utility",
        choices=["adaptive", "rigid"],
        default="adaptive",
        help="application utility class",
    )
    ta.add_argument(
        "--samples", type=int, default=4000, help="census samples for the fitters"
    )
    ta.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="transient to exclude (default: 10%% of the horizon)",
    )

    prov = sub.add_parser(
        "provenance",
        help="frozen result provenance: freeze published results into a "
        "sha256-manifested snapshot, verify one by recompute",
    )
    prov_sub = prov.add_subparsers(dest="provenance_command", required=True)

    pf = prov_sub.add_parser(
        "freeze", help="snapshot golden pins, bench gates and replay summaries"
    )
    pf.add_argument("snapshot", help="snapshot directory to create/update")
    pf.add_argument(
        "--root", default=".", help="repository root holding the artifacts"
    )
    pf.add_argument(
        "--include",
        nargs="+",
        choices=["golden", "bench", "traces"],
        default=None,
        metavar="COMPONENT",
        help="artifact groups to freeze (default: all)",
    )

    pv = prov_sub.add_parser(
        "verify",
        help="re-hash artifacts and recompute manifested headline numbers; "
        "exits nonzero on drift",
    )
    pv.add_argument("snapshot", help="snapshot directory holding MANIFEST.json")
    pv.add_argument("--json", action="store_true", help="emit JSON")

    obs_cmd = sub.add_parser(
        "obs",
        help="telemetry tools: journal tail, trace export, hotspot tables, "
        "bench-history regression gate",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    tail = obs_sub.add_parser(
        "tail", help="print a journal's events, oldest first"
    )
    tail.add_argument("journal", help="journal path (a --events-json file)")
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep following the file for new events (like tail -f)",
    )
    tail.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while following (default 0.2)",
    )
    tail.add_argument(
        "--event",
        action="append",
        metavar="NAME",
        help="only show events with this name (repeatable)",
    )

    hot = obs_sub.add_parser(
        "hotspots",
        help="aggregate a span-tree JSON dump into a per-span time table",
    )
    hot.add_argument("trace", help="span-tree JSON written by --trace-json")
    hot.add_argument(
        "--wall",
        type=float,
        metavar="SECONDS",
        help="wall time of the traced run, for a coverage figure",
    )
    hot.add_argument(
        "--top", type=int, default=0, metavar="N", help="show only the top N rows"
    )
    hot.add_argument("--json", action="store_true", help="emit JSON instead of text")

    ct = obs_sub.add_parser(
        "chrome-trace",
        help="convert a span-tree JSON dump to Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    ct.add_argument("trace", help="span-tree JSON written by --trace-json")
    ct.add_argument("--out", required=True, metavar="PATH", help="output file")

    regress = obs_sub.add_parser(
        "regress",
        help="gate the latest bench-history point of every metric series "
        "against its rolling robust baseline",
    )
    regress.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        metavar="PATH",
        help=f"ledger path (default: {DEFAULT_HISTORY})",
    )
    regress.add_argument(
        "--window",
        type=int,
        default=ledger.DEFAULT_WINDOW,
        metavar="K",
        help="baseline size: the K points before the latest "
        f"(default {ledger.DEFAULT_WINDOW})",
    )
    regress.add_argument(
        "--mad-sigmas",
        type=float,
        default=ledger.DEFAULT_MAD_SIGMAS,
        metavar="S",
        help="significance band in robust standard deviations "
        f"(default {ledger.DEFAULT_MAD_SIGMAS:g})",
    )
    regress.add_argument(
        "--rel-floor",
        type=float,
        default=ledger.DEFAULT_REL_FLOOR,
        metavar="F",
        help="minimum significant relative deviation "
        f"(default {ledger.DEFAULT_REL_FLOOR:g})",
    )
    regress.add_argument(
        "--min-history",
        type=int,
        default=ledger.DEFAULT_MIN_HISTORY,
        metavar="N",
        help="series shorter than N points are reported informationally "
        f"instead of gated (default {ledger.DEFAULT_MIN_HISTORY}); raise "
        "it to keep freshly (re)keyed series in a warm-up window",
    )
    regress.add_argument(
        "--json", action="store_true", help="emit the JSON report instead of text"
    )

    lc = obs_sub.add_parser(
        "ledger-check",
        help="strict schema validation of a bench-history ledger "
        "(the CI schema-drift check)",
    )
    lc.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        metavar="PATH",
        help=f"ledger path (default: {DEFAULT_HISTORY})",
    )

    emulate = sub.add_parser(
        "emulate",
        help="fit / re-check the certified Chebyshev emulator surfaces "
        "for delta(C), Delta(C), gamma(p) (see docs/SERVICE.md)",
    )
    em_sub = emulate.add_subparsers(dest="emulate_command", required=True)

    em_fit = em_sub.add_parser(
        "fit", help="fit every surface, certify its error bound, print a table"
    )
    em_fit.add_argument(
        "--out", metavar="PATH", help="also write the fitted bank as JSON"
    )
    em_fit.add_argument(
        "--fast-config",
        action="store_true",
        help="fit under the reduced config (quick look)",
    )
    em_fit.add_argument(
        "--json", action="store_true", help="emit the bank summary as JSON"
    )
    _add_profile_args(em_fit)

    em_check = em_sub.add_parser(
        "check",
        help="re-verify every surface's certified bound on a fresh probe "
        "grid against the exact solvers",
    )
    em_check.add_argument(
        "--bank",
        metavar="PATH",
        help="bank JSON written by `emulate fit --out` (default: fit fresh)",
    )
    em_check.add_argument(
        "--fast-config",
        action="store_true",
        help="check under the reduced config (quick look)",
    )
    em_check.add_argument(
        "--probes",
        type=int,
        default=41,
        metavar="N",
        help="fresh probe points per surface (default 41)",
    )
    em_check.add_argument(
        "--json", action="store_true", help="emit the check report as JSON"
    )
    _add_profile_args(em_check)

    srv = sub.add_parser(
        "serve",
        help="serve delta/Delta/gamma point and batch queries over HTTP "
        "from the certified surfaces (exact-solver fallback through the "
        "result cache; see docs/SERVICE.md)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8321, help="bind port (0: ephemeral)"
    )
    srv.add_argument(
        "--bank",
        metavar="PATH",
        help="serve a pre-fitted bank JSON instead of fitting at startup",
    )
    srv.add_argument(
        "--fast-config",
        action="store_true",
        help="serve the reduced config (quick look; re-addresses the cache)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="threads for exact-fallback queries (default 4)",
    )
    srv.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".repro-cache",
        help="result-cache directory for exact fallbacks "
        "(default: .repro-cache)",
    )
    srv.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute exact fallbacks instead of using the result cache",
    )
    srv.add_argument(
        "--events-json",
        metavar="PATH",
        help="append service journal events (JSONL) to PATH",
    )
    return parser


def _finish_observed(args) -> int:
    """Emit the --profile report and/or --trace-json dump, then disable.

    Returns 0, or 2 if the trace file could not be written.
    """
    status = 0
    if args.trace_json:
        try:
            atomic_write_text(args.trace_json, obs.trace_json())
        except OSError as exc:
            print(f"cannot write trace to {args.trace_json}: {exc}", file=sys.stderr)
            status = 2
        else:
            print(f"trace written to {args.trace_json}", file=sys.stderr)
    if args.profile:
        print()
        print(obs.render_report())
    obs.disable()
    return status


def _render_run_all(batch) -> str:
    """Human-readable summary of a :class:`repro.runner.RunReport`."""
    lines = []
    for outcome in batch.outcomes:
        detail = ""
        if outcome.worker is not None:
            detail += f"  [worker {outcome.worker}]"
        if outcome.error:
            detail += f"  {outcome.error}"
        lines.append(
            f"{outcome.exp_id:6s} {outcome.status:9s} "
            f"{outcome.seconds:8.3f} s{detail}"
        )
    counts = batch.counts()
    summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
    lines.append(
        f"-- {len(batch.outcomes)} experiments ({summary}); "
        f"wall {batch.wall_seconds:.3f} s, jobs {batch.jobs}"
    )
    return "\n".join(lines)


def _cmd_obs(args) -> int:
    """The ``obs`` telemetry subcommands."""
    import json as _json

    from repro.obs import events, traceview

    if args.obs_command == "tail":
        wanted = set(args.event) if args.event else None

        def show(record) -> None:
            if wanted is None or record.get("event") in wanted:
                print(events.render_event(record), flush=True)

        try:
            if args.follow:
                for record in events.follow_events(
                    args.journal, poll_seconds=args.poll
                ):
                    show(record)
                return 0
            records, damaged = events.read_journal(args.journal)
            for record in records:
                show(record)
            if damaged:
                print(f"-- {damaged} damaged line(s) skipped", file=sys.stderr)
        except KeyboardInterrupt:
            return 0
        except BrokenPipeError:
            # piped into head/less and the reader left — not an error
            try:
                sys.stdout.close()
            except OSError:
                pass
            return 0
        except OSError as exc:
            print(f"cannot read journal {args.journal}: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.obs_command in ("hotspots", "chrome-trace"):
        try:
            roots = traceview.load_trace_file(args.trace)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load trace {args.trace}: {exc}", file=sys.stderr)
            return 2
        if args.obs_command == "hotspots":
            table = traceview.hotspots(roots, wall_seconds=args.wall)
            if args.json:
                print(_json.dumps(table, indent=2))
            else:
                print(traceview.render_hotspots(table, top=args.top))
            return 0
        trace = traceview.chrome_trace(roots)
        errors = traceview.validate_chrome_trace(trace)
        if errors:
            for err in errors:
                print(err, file=sys.stderr)
            return 1
        atomic_write_text(args.out, _json.dumps(trace))
        print(
            f"chrome trace written to {args.out} "
            f"({len(trace['traceEvents'])} events); load it in "
            "https://ui.perfetto.dev",
            file=sys.stderr,
        )
        return 0

    if args.obs_command == "regress":
        try:
            verdict = ledger.check_history(
                args.history,
                window=args.window,
                mad_sigmas=args.mad_sigmas,
                rel_floor=args.rel_floor,
                min_history=args.min_history,
            )
        except FileNotFoundError:
            print(f"no ledger at {args.history}", file=sys.stderr)
            return 2
        if args.json:
            print(_json.dumps(verdict.to_dict(), indent=2))
        else:
            print(verdict.render())
        return 0 if verdict.ok else 1

    if args.obs_command == "ledger-check":
        try:
            entries, _ = ledger.load_history(args.history, strict=True)
        except FileNotFoundError:
            print(f"no ledger at {args.history}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"ledger schema drift: {exc}", file=sys.stderr)
            return 1
        print(f"{args.history}: {len(entries)} entries, schema ok")
        return 0

    raise AssertionError(
        f"unhandled obs command {args.obs_command!r}"
    )  # pragma: no cover


def _config_label(digest: str) -> str:
    """How a refusal names the config behind ``digest``."""
    from repro.runner import config_digest

    for name, config in (("default", DEFAULT_CONFIG), ("fast", FAST_CONFIG)):
        if digest == config_digest(config):
            return f"the {name} config"
    return f"config {digest[:12]}"


def _saved_bank(path, config):
    """The bank saved at ``path`` if it loads and was fitted for ``config``.

    Otherwise print the one-line reason and return ``None``: ``emulate
    check --bank`` and ``serve --bank`` then exit 2 rather than probe or
    serve surfaces fitted for other parameters.
    """
    from repro.emulator import SurfaceBank
    from repro.runner import config_digest

    try:
        bank = SurfaceBank.load(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load bank {path}: {exc}", file=sys.stderr)
        return None
    expected = config_digest(config)
    if bank.config_digest != expected:
        print(
            f"bank {path} was fitted for {_config_label(bank.config_digest)}, "
            f"but this command uses {_config_label(expected)}; "
            "pass --fast-config exactly when the bank was fitted with it",
            file=sys.stderr,
        )
        return None
    return bank


def _cmd_emulate(args) -> int:
    """The ``emulate fit`` / ``emulate check`` subcommands."""
    import json as _json

    from repro.emulator import check_bank, fit_bank, surfaces_summary
    from repro.errors import CertificationError

    if args.emulate_command == "check" and args.probes < 1:
        _refuse("--probes must be >= 1")
    config = FAST_CONFIG if args.fast_config else DEFAULT_CONFIG
    observing = args.profile or bool(args.trace_json)
    if observing:
        obs.reset()
        obs.enable()

    if args.emulate_command == "fit":
        try:
            bank = fit_bank(config)
        except CertificationError as exc:
            print(f"certification refused: {exc}", file=sys.stderr)
            return 1
        if args.out:
            path = bank.save(args.out)
            print(f"bank written to {path}", file=sys.stderr)
        if args.json:
            print(_json.dumps(bank.to_dict(), indent=2, sort_keys=True))
        else:
            print(surfaces_summary(bank.surfaces.values()))
        if observing:
            return _finish_observed(args)
        return 0

    if args.emulate_command == "check":
        if args.bank:
            bank = _saved_bank(args.bank, config)
            if bank is None:
                return 2
        else:
            try:
                bank = fit_bank(config)
            except CertificationError as exc:
                print(f"certification refused: {exc}", file=sys.stderr)
                return 1
        rows = check_bank(bank, config, probes=args.probes)
        ok = all(row["ok"] for row in rows)
        if args.json:
            print(_json.dumps({"ok": ok, "surfaces": rows}, indent=2))
        else:
            for row in rows:
                mark = "ok  " if row["ok"] else "FAIL"
                print(
                    f"{mark} {row['surface']:34s} residual "
                    f"{row['residual']:8.3f} of bound "
                    f"{row['certified_bound']:.3e}"
                )
        status = _finish_observed(args) if observing else 0
        if status:
            return status
        return 0 if ok else 1

    raise AssertionError(
        f"unhandled emulate command {args.emulate_command!r}"
    )  # pragma: no cover


def _render_meanfield(series, *, load: str, utility: str) -> str:
    """Human-readable sweep table + the diffusion point estimate."""
    lines = [
        (
            f"mean-field engine: load={load} utility={utility} "
            f"N={float(series['population'][0]):g} "
            f"CV={float(series['cv'][0]):.4f} "
            f"tau={float(series['relaxation_time'][0]):.3g}"
        ),
        f"{'C':>10s}  {'B(C)':>9s}  {'R(C)':>9s}  {'gap':>10s}",
    ]
    for c, b, r, g in zip(
        series["capacity"],
        series["best_effort"],
        series["reservation"],
        series["gap"],
    ):
        lines.append(f"{c:10.1f}  {b:9.5f}  {r:9.5f}  {g:10.6f}")
    level = float(series["point_level"][0])
    lines.append(
        f"point estimate at C={float(series['point_capacity'][0]):g} "
        f"(R={int(series['point_replications'][0])}, "
        f"t={float(series['point_horizon'][0]):g}, "
        f"warmup={float(series['point_warmup'][0]):g}, "
        f"{level:.0%} CI):"
    )
    for name, key in (
        ("B", "point_best_effort"),
        ("R", "point_reservation"),
        ("gap", "point_gap"),
    ):
        lines.append(
            f"  {name:>3s} = {float(series[key][0]):.6f} "
            f"+/- {float(series[key + '_ci'][0]):.6f}"
        )
    return "\n".join(lines)


def _cmd_meanfield(args) -> int:
    """The ``meanfield`` command: cache-addressed fluid-diffusion sweep."""
    import dataclasses

    from repro.errors import OutOfDomainError
    from repro.meanfield.sweep import sweep_experiment

    config = FAST_CONFIG if args.fast_config else DEFAULT_CONFIG
    overrides = {}
    if args.population is not None:
        if not _positive(args.population):
            _refuse("--population must be finite and > 0")
        overrides["kbar"] = args.population
    if args.capacities:
        if not all(_positive(c) for c in args.capacities):
            _refuse("--capacities must be finite and > 0")
        overrides["capacities"] = tuple(float(c) for c in args.capacities)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    observing = args.profile or bool(args.trace_json)
    if observing:
        obs.reset()
        obs.enable()
    exp = sweep_experiment(args.load, args.utility)
    cache = None
    if args.cache_dir and not args.no_cache:
        from repro.runner import ResultCache

        cache = ResultCache(args.cache_dir)
    cache_status = None

    def sweep():
        with obs.span("meanfield.sweep", load=args.load, utility=args.utility):
            return exp.run(config)

    start = time.perf_counter()
    try:
        if cache is None:
            series = sweep()
        else:
            series, hit = cache.read_through(exp, config, sweep, force=args.force)
            cache_status = "hit" if hit else "miss"
    except OutOfDomainError as exc:
        # refuse-don't-extrapolate: the envelope verdict is the
        # answer, and it is never cached
        print(str(exc), file=sys.stderr)
        if observing:
            _finish_observed(args)
        return 1
    elapsed = time.perf_counter() - start
    if args.json:
        meta = {
            "load": args.load,
            "utility": args.utility,
            "elapsed_seconds": elapsed,
            "config": "fast" if args.fast_config else "default",
        }
        if cache is not None:
            meta["cache"] = cache_status
        if observing:
            meta["metrics"] = obs.snapshot()
        print(report.to_json(series, meta=meta))
    else:
        print(_render_meanfield(series, load=args.load, utility=args.utility))
    if observing:
        return _finish_observed(args)
    return 0


def _cmd_traces(args) -> int:
    """The ``traces`` streaming subcommands."""
    import json as _json

    from repro.errors import ReproError
    from repro.traces import (
        DEFAULT_CHUNK_FLOWS,
        default_workload,
        open_trace,
        replay_stream,
        stream_census_samples,
        write_trace_csv,
        write_trace_npz,
    )
    from repro.utility import AdaptiveUtility, RigidUtility

    chunk_flows = getattr(args, "chunk_flows", None) or DEFAULT_CHUNK_FLOWS

    try:
        if args.traces_command == "generate":
            workload = default_workload(args.workload, args.rate, mu=args.mu)
            stream = workload.stream(
                args.horizon, seed=args.seed, chunk_flows=chunk_flows
            )
            if args.npz:
                path = write_trace_npz(stream, args.out)
            else:
                path = write_trace_csv(stream, args.out)
            print(path)
            return 0

        utility = (
            AdaptiveUtility() if args.utility == "adaptive" else RigidUtility(1.0)
        )
        stream = open_trace(args.trace, chunk_flows=chunk_flows)
        warmup = args.warmup
        if warmup is None:
            warmup = 0.1 * stream.horizon

        if args.traces_command == "replay":
            result = replay_stream(
                stream,
                utility,
                args.capacity,
                windows=args.windows,
                warmup=warmup,
            )
            summary = result.summary()
            if args.json:
                print(_json.dumps(summary, indent=2))
            else:
                print(
                    f"replayed {summary['flows']} flows over "
                    f"{summary['windows']} windows "
                    f"(horizon {summary['horizon']:g}, warmup "
                    f"{summary['warmup']:g})"
                )
                print(
                    f"  B_hat = {summary['best_effort']:.6f} "
                    f"+/- {summary['best_effort_ci']:.6f}"
                )
                print(
                    f"  R_hat = {summary['reservation']:.6f} "
                    f"+/- {summary['reservation_ci']:.6f}  "
                    f"(threshold {summary['threshold']:g})"
                )
                print(
                    f"  gap   = {summary['gap']:.6f} "
                    f"+/- {summary['gap_ci']:.6f}"
                )
                print(f"  mean census = {summary['mean_census']:.3f}")
            return 0

        if args.traces_command == "analyze":
            from repro.inference import recommend_architecture

            if stream.flows == 0:
                print(
                    "cannot analyze a zero-flow trace: the census is "
                    "identically zero and no load can be identified",
                    file=sys.stderr,
                )
                return 2
            census = stream_census_samples(
                stream, args.samples, warmup=warmup, seed=0
            )
            recommendation = recommend_architecture(
                census, utility, price=args.price
            )
            print(recommendation.summary())
            return 0
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    raise AssertionError(
        f"unhandled traces command {args.traces_command!r}"
    )  # pragma: no cover


def _cmd_provenance(args) -> int:
    """The ``provenance`` freeze/verify subcommands."""
    import json as _json

    from repro.errors import ProvenanceError
    from repro.provenance import freeze, verify

    try:
        if args.provenance_command == "freeze":
            include = args.include or ("golden", "bench", "traces")
            manifest = freeze(
                args.snapshot, source_root=args.root, include=include
            )
            print(
                f"froze {len(manifest.artifacts)} artifact(s) into "
                f"{args.snapshot} (git {manifest.git_sha[:12]})"
            )
            for rel in sorted(manifest.artifacts):
                entry = manifest.artifacts[rel]
                print(f"  {entry['sha256'][:12]}  {entry['bytes']:>9}  {rel}")
            return 0

        if args.provenance_command == "verify":
            report_ = verify(args.snapshot)
            if args.json:
                print(_json.dumps(report_.to_dict(), indent=2))
            else:
                print(report_.render())
            return 0 if report_.ok else 1
    except ProvenanceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    raise AssertionError(
        f"unhandled provenance command {args.provenance_command!r}"
    )  # pragma: no cover


def _cmd_serve(args) -> int:
    """The ``serve`` command: run the HTTP service until interrupted."""
    import asyncio

    from repro.emulator import fit_bank
    from repro.errors import CertificationError
    from repro.service import DEFAULT_EXECUTOR_WORKERS, EmulatorService, metered
    from repro.service import serve as serve_async

    if args.workers is not None and args.workers < 1:
        _refuse("--workers must be >= 1")
    if not 0 <= args.port <= 65535:
        _refuse("--port must be in 0..65535")
    config = FAST_CONFIG if args.fast_config else DEFAULT_CONFIG
    # metrics are always on for a server: /v1/metrics exposes the
    # counters and per-endpoint latency histograms
    with metered():
        if args.bank:
            bank = _saved_bank(args.bank, config)
            if bank is None:
                return 2
        else:
            print("fitting surfaces...", file=sys.stderr, flush=True)
            try:
                bank = fit_bank(config)
            except CertificationError as exc:
                print(f"certification refused: {exc}", file=sys.stderr)
                return 1
        cache = None
        if args.cache_dir and not args.no_cache:
            from repro.runner import ResultCache

            cache = ResultCache(args.cache_dir)
        service = EmulatorService(config, bank=bank, cache=cache)
        print(
            f"serving {len(bank)} surface(s) on http://{args.host}:{args.port} "
            f"(cache: {args.cache_dir if cache is not None else 'off'})",
            file=sys.stderr,
            flush=True,
        )
        workers = DEFAULT_EXECUTOR_WORKERS if args.workers is None else args.workers
        try:
            asyncio.run(
                serve_async(
                    service,
                    host=args.host,
                    port=args.port,
                    executor_workers=workers,
                )
            )
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI main: parse, open the journal if asked, dispatch, close.

    The journal wraps the whole command so ``cli.start`` /
    ``cli.finish`` bracket every other event, and the exit status is
    recorded even when the command raises.
    """
    args = build_parser().parse_args(argv)
    path = getattr(args, "events_json", None)
    if not path:
        return _dispatch(args)
    obs.open_journal(path, command=args.command)
    obs.emit("cli.start", command=args.command)
    status: Optional[int] = None
    try:
        status = _dispatch(args)
        return status
    finally:
        obs.emit(
            "cli.finish",
            command=args.command,
            status=2 if status is None else status,
        )
        obs.close_journal()


def _dispatch(args) -> int:
    """Execute one parsed command; returns a process exit code."""
    if args.command == "obs":
        return _cmd_obs(args)

    if args.command == "emulate":
        return _cmd_emulate(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "meanfield":
        return _cmd_meanfield(args)

    if args.command == "traces":
        return _cmd_traces(args)

    if args.command == "provenance":
        return _cmd_provenance(args)

    if args.command == "list":
        for exp in registry.EXPERIMENTS.values():
            print(f"{exp.exp_id:6s} {exp.description}")
        return 0

    if args.command == "run":
        from repro import runner

        try:
            registry.get(args.experiment)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        config = _simulation_config(
            FAST_CONFIG if args.fast else DEFAULT_CONFIG, args
        )
        observing = args.profile or bool(args.trace_json)
        if observing:
            obs.reset()
            obs.enable()
        batch = runner.run_many(
            [args.experiment],
            config=config,
            jobs=1,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            force=args.force,
        )
        (outcome,) = batch.outcomes
        if not outcome.ok:
            print(f"{outcome.exp_id}: {outcome.error}", file=sys.stderr)
        elif args.json:
            meta = {
                "experiment": outcome.exp_id,
                "elapsed_seconds": batch.wall_seconds,
                "config": "fast" if args.fast else "default",
            }
            if batch.cache_dir is not None:
                cached = outcome.status == runner.STATUS_CACHED
                meta["cache"] = "hit" if cached else "miss"
            if observing:
                meta["metrics"] = obs.snapshot()
            print(report.to_json(outcome.result(), meta=meta))
        else:
            print(report.render(outcome.result()))
        status = _finish_observed(args) if observing else 0
        if status:
            return status
        return 0 if outcome.ok else 1

    if args.command == "run-all":
        from repro import runner

        config = _simulation_config(
            FAST_CONFIG if args.fast else DEFAULT_CONFIG, args
        )
        observing = args.profile or bool(args.trace_json)
        if observing:
            obs.reset()
            obs.enable()
        ids = list(args.ids) or None
        count = len(ids) if ids is not None else len(registry.EXPERIMENTS)
        # announced before any work starts, so operators (and the
        # fault-injection tests) can tell the batch is underway
        print(
            f"run-all: {count} experiment(s), jobs={args.jobs}",
            file=sys.stderr,
            flush=True,
        )
        try:
            batch = runner.run_many(
                ids,
                config=config,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                force=args.force,
            )
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            import json as _json

            payload = batch.to_dict()
            meta = {
                "schema": payload["schema"],
                "jobs": payload["jobs"],
                "wall_seconds": payload["wall_seconds"],
                "cache_dir": payload["cache_dir"],
                "counts": payload["counts"],
                "config": "fast" if args.fast else "default",
            }
            if observing:
                meta["metrics"] = obs.snapshot()
            envelope = {"_meta": meta, "result": payload["experiments"]}
            print(_json.dumps(envelope, indent=2))
        else:
            print(_render_run_all(batch))
        status = _finish_observed(args) if observing else 0
        if status:
            return status
        return 0 if batch.ok else 1

    if args.command == "verify":
        from repro.verify import runner as verify_runner

        config = FAST_CONFIG if args.fast_config else DEFAULT_CONFIG
        observing = args.profile or bool(args.trace_json)
        if observing:
            obs.reset()
            obs.enable()
        cache_status = None
        if args.only:
            # selections are never cached: a partial run must not be
            # served later as the full suite
            try:
                verification = verify_runner.run_suite(
                    args.suite, config, ids=args.only
                )
            except KeyError as exc:
                print(str(exc.args[0]), file=sys.stderr)
                return 2
        elif args.cache_dir and not args.no_cache:
            from repro.runner import ResultCache

            verification, from_cache = verify_runner.cached_suite(
                args.suite,
                config,
                cache=ResultCache(args.cache_dir),
                force=args.force,
            )
            cache_status = "hit" if from_cache else "miss"
        else:
            verification = verify_runner.run_suite(args.suite, config)
        if args.json:
            meta = {
                "config": "fast" if args.fast_config else "default",
            }
            if cache_status is not None:
                meta["cache"] = cache_status
            if observing:
                meta["metrics"] = obs.snapshot()
            import json as _json

            print(_json.dumps({"_meta": meta, **verification.to_dict()}, indent=2))
        else:
            print(verification.render())
        status = _finish_observed(args) if observing else 0
        if status:
            return status
        return 0 if verification.ok else 1

    if args.command == "export":
        try:
            exp = registry.get(args.experiment)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
        result = exp.run(config)
        if not isinstance(result, dict):
            print(
                f"experiment {args.experiment} is a checkpoint table, not a "
                "figure; use `run` for it",
                file=sys.stderr,
            )
            return 2
        from repro.experiments.export import export_figure

        written = export_figure(result, args.out, args.experiment.replace(".", "_"))
        for path in written:
            print(path)
        return 0

    if args.command == "checkpoints":
        observing = args.profile or bool(args.trace_json)
        if observing:
            obs.reset()
            obs.enable()
        with obs.span("checkpoints"):
            rows = checkpoints.all_checkpoints()
        if args.json:
            print(report.to_json(rows))
        elif args.markdown:
            print(report.markdown_checkpoint_table(rows))
        else:
            print(report.render_checkpoints(rows))
        status = _finish_observed(args) if observing else 0
        if status:
            return status
        return 0 if all(row.matches for row in rows) else 1

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
