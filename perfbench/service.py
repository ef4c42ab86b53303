"""``service``: clients querying a real ``repro serve`` process over HTTP.

The load is a closed loop: ``threads`` keep-alive connections, one per
thread, each sending its next request when the last one answered.  The
seeded mix puts cheap and solver-bound classes on one server, so a gain
on one class that costs the other shows:

- 80% ``point_hit``: ``GET /v1/point``, adaptive utility, one of the 9
  surfaces, x inside the surface's fitted domain;
- 10% ``batch_hit``: ``POST /v1/batch`` with in-domain points;
- 5% ``exact``: delta/Delta/gamma through the exact path.  Half use the
  rigid utility, a quarter an x above the fitted domain, a quarter a
  ``kbar`` what-if with kbar uniform in [60, 140]; one in four repeats
  an earlier exact query, so cache reads run beside cache writes;
- 5% ``meanfield``: ``engine=meanfield`` at kbar in {50, 100, 200}.
"""

from __future__ import annotations

import http.client
import math
import os
import pickle
import random
import statistics
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from perfbench import ROOT, SRC, layers, procs, speed
from perfbench.report import Outcome, Row, timing_rows

#: The source a correct answer of each class reports.
EXPECTED_SOURCE = {
    "point_hit": "surface",
    "batch_hit": "surface",
    "exact": "exact",
    "meanfield": "meanfield",
}

#: One round of the class mix: 80% point hits, 10% batches, 5% exact, 5%
#: meanfield.
KIND_ROUND = ("point_hit",) * 16 + ("batch_hit",) * 2 + ("exact", "meanfield")

MEANFIELD_KBARS = (50.0, 100.0, 200.0)


@dataclass(frozen=True)
class Size:
    setups: int  # server spawns timed for setup_s; the last one serves the load
    warmup: int  # untimed requests sent to each server before timing
    threads: int
    batch_points: int
    check_share: float  # share of answers recomputed exactly afterwards


SIZES = {
    "full": Size(setups=3, warmup=500, threads=2, batch_points=64, check_share=0.01),
    "tiny": Size(setups=1, warmup=20, threads=2, batch_points=8, check_share=0.2),
}


class Request(NamedTuple):
    kind: str
    quantity: str
    load: str
    utility: str
    xs: Tuple[float, ...]
    kbar: Optional[float] = None


class Record(NamedTuple):
    request: Request
    seconds: float
    answer: Optional[dict]
    error: Optional[str]


class _Deck:
    """Deals ``cards`` in a fresh seeded shuffle each round.

    Every round of ``len(cards)`` draws holds each card once, so class
    shares are exact over a run instead of drifting with the seed.
    """

    def __init__(self, rng: random.Random, cards):
        self._rng, self._cards, self._hand = rng, list(cards), []

    def draw(self):
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


class RequestStream:
    """The seeded request sequence of one client thread."""

    def __init__(self, seed: int, thread: int, batch_points: int):
        from repro.emulator.bank import DOMAINS, LOADS, LOG_X, QUANTITIES

        self._domains, self._log_x, self._loads = DOMAINS, LOG_X, LOADS
        self._rng = rng = random.Random(seed * 1009 + thread)
        self._batch_points = batch_points
        self._kinds = _Deck(rng, KIND_ROUND)
        self._surfaces = _Deck(rng, [(q, load) for q in QUANTITIES for load in LOADS])
        # per 16 exact requests: 4 repeats; of the 12 new, half rigid, a
        # quarter out of domain, a quarter kbar what-ifs
        variants = ["repeat"] * 4 + [
            (variant, q)
            for q in QUANTITIES
            for variant in ("rigid", "rigid", "out_of_domain", "kbar")
        ]
        self._exact_variants = _Deck(rng, variants)
        self._meanfield_kbars = _Deck(rng, MEANFIELD_KBARS)
        self._exact_history: List[Request] = []

    def _in_domain(self, quantity: str) -> float:
        lo, hi = self._domains[quantity]
        u = self._rng.random()
        x = lo * (hi / lo) ** u if self._log_x[quantity] else lo + (hi - lo) * u
        return min(max(x, lo), hi)

    def _out_of_domain(self, quantity: str) -> float:
        lo, hi = self._domains[quantity]
        if quantity == "gamma":
            # prices below the fitted range: above it the rigid
            # equalizing ratio is undefined (NaN) for every load
            return lo * self._rng.uniform(0.5, 0.99)
        return hi * self._rng.uniform(1.05, 2.0)

    def _exact(self) -> Request:
        card = self._exact_variants.draw()
        while card == "repeat" and not self._exact_history:
            card = self._exact_variants.draw()
        if card == "repeat":
            return self._rng.choice(self._exact_history)
        variant, quantity = card
        load = self._rng.choice(self._loads)
        if variant == "rigid":
            request = Request("exact", quantity, load, "rigid", (self._in_domain(quantity),))
        elif variant == "out_of_domain":
            x = self._out_of_domain(quantity)
            request = Request("exact", quantity, load, "adaptive", (x,))
        else:
            kbar = self._rng.uniform(60.0, 140.0)
            x = self._in_domain(quantity)
            request = Request("exact", quantity, load, "adaptive", (x,), kbar)
        self._exact_history.append(request)
        return request

    def next(self) -> Request:
        kind = self._kinds.draw()
        if kind == "exact":
            return self._exact()
        if kind == "meanfield":
            kbar = self._meanfield_kbars.draw()
            x = kbar * self._rng.uniform(0.5, 2.0)
            return Request(kind, "delta", "poisson", "adaptive", (x,), kbar)
        quantity, load = self._surfaces.draw()
        points = 1 if kind == "point_hit" else self._batch_points
        xs = tuple(self._in_domain(quantity) for _ in range(points))
        return Request(kind, quantity, load, "adaptive", xs)


def send(client, request: Request) -> dict:
    """One request over ``client`` (a ``repro.service.ServiceClient``)."""
    if request.kind == "point_hit":
        query = urllib.parse.urlencode(
            {
                "quantity": request.quantity,
                "load": request.load,
                "utility": request.utility,
                "x": repr(request.xs[0]),
            }
        )
        return client.request("GET", f"/v1/point?{query}")
    if request.kind == "batch_hit":
        return client.batch(request.quantity, request.load, request.utility, request.xs)
    engine = "meanfield" if request.kind == "meanfield" else None
    return client.point(
        request.quantity,
        request.load,
        request.utility,
        request.xs[0],
        kbar=request.kbar,
        engine=engine,
    )


def _drive(clients, streams, *, count: int, deadline: float) -> List[Record]:
    """Closed loop: each thread sends ``count`` requests or until ``deadline``."""
    from repro.service import ServiceClientError

    sinks: List[List[Record]] = [[] for _ in clients]

    def loop(client, stream, sink):
        while len(sink) < count and time.perf_counter() < deadline:
            request = stream.next()
            start = time.perf_counter()
            try:
                answer, error = send(client, request), None
            except (ServiceClientError, OSError, http.client.HTTPException) as exc:
                answer, error = None, f"{type(exc).__name__}: {exc}"
            sink.append(Record(request, time.perf_counter() - start, answer, error))

    threads = [
        threading.Thread(target=loop, args=args, name=f"client-{i}")
        for i, args in enumerate(zip(clients, streams, sinks))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for sink in sinks for record in sink]


def check_sources(records: List[Record]) -> Dict[int, str]:
    """Every answer must come from the path its class is meant to take.

    Returns ``{request index: failure message}``.
    """
    failures = {}
    for i, record in enumerate(records):
        if record.error is not None:
            failures[i] = f"request {i} ({record.request.kind}): {record.error}"
        elif record.answer["source"] != EXPECTED_SOURCE[record.request.kind]:
            failures[i] = (
                f"request {i} ({record.request.kind}): source "
                f"{record.answer['source']!r}"
            )
    return failures


def exact_answers(request: Request, xs) -> List[float]:
    """The exact engine's values for a request, in the harness process."""
    import dataclasses

    from repro.emulator.bank import exact_values
    from repro.experiments.params import DEFAULT_CONFIG

    config = DEFAULT_CONFIG
    if request.kbar is not None:
        config = dataclasses.replace(config, kbar=request.kbar)
    return list(exact_values(request.quantity, config, request.load, request.utility, xs))


#: Relative tolerance to which the exact engine reproduces itself.
EXACT_RTOL = 1e-9


def _same(value: float, exact: float) -> bool:
    if math.isnan(value) or math.isnan(exact):
        return math.isnan(value) and math.isnan(exact)
    return abs(value - exact) <= EXACT_RTOL * abs(exact)


def check_values(
    records: List[Record],
    rng: random.Random,
    share: float,
    exact: Callable[[Request, list], List[float]] = exact_answers,
) -> Dict[int, str]:
    """Recompute a seeded share of answers exactly.

    Exact answers must equal the exact value at rtol ``EXACT_RTOL``.
    Surface answers must lie within their certified bound of it, or
    within that same rtol: the gamma/poisson surface certifies 1.8e-11
    but misses the steep rise of gamma - 1 near p = 0.29 by up to 2.1e-11
    (about 1 point in 4000), far below anything the equality check
    distinguishes.  Surface points are recomputed in one grid per
    (quantity, load).  Returns ``{request index: failure message}``.
    """
    failures = {}
    groups: Dict[Tuple[str, str], List[Tuple[int, float, float, float]]] = {}
    for i, record in enumerate(records):
        kind = record.request.kind
        if record.answer is None or kind == "meanfield" or rng.random() >= share:
            continue
        if kind == "exact":
            value = record.answer["value"]
            truth = exact(record.request, list(record.request.xs))[0]
            if not _same(value, truth):
                failures[i] = f"request {i} (exact): {value!r} != exact {truth!r}"
            continue
        values = record.answer.get("values", [record.answer.get("value")])
        bound = record.answer["certified_bound"]
        group = groups.setdefault((record.request.quantity, record.request.load), [])
        group += [(i, x, v, bound) for x, v in zip(record.request.xs, values)]
    for (quantity, load), points in groups.items():
        request = Request("point_hit", quantity, load, "adaptive", ())
        truths = exact(request, [x for _, x, _, _ in points])
        for (i, _, value, bound), truth in zip(points, truths):
            if not abs(value - truth) <= bound + EXACT_RTOL * abs(truth):
                failures[i] = f"request {i}: surface answer outside its certified bound"
    return failures


def _start_server(tmp, index: int, traced: bool) -> Tuple[procs.Server, Optional[object]]:
    port = procs.free_port()
    serve_args = ["--port", str(port), "--cache-dir", str(tmp / f"cache-{index}")]
    spans_path = tmp / f"spans-{index}.pickle" if traced else None
    if traced:
        argv = [sys.executable, "-m", "perfbench.traced_serve", str(spans_path), *serve_args]
    else:
        argv = [sys.executable, "-m", "repro", "serve", *serve_args]
    server = procs.Server(
        argv,
        port=port,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT), str(SRC)])},
        log_path=tmp / f"server-{index}.log",
    )
    return server, spans_path


#: Shortest timed load, however late the server came up.
MIN_LOAD_S = 1.0

#: The timed load pauses this often for a speed probe (``perfbench.speed``).
SEGMENT_S = 2.0


class _Phase(NamedTuple):
    server: procs.Server
    records: List[Record]
    to_reference: List[float]  # per record: latency factor to reference speed
    seconds: float  # length of the timed load
    timed_from: float  # perf_counter when timing began
    rss_mb: float
    spans: list


def _load_phase(tmp, index, traced, size: Size, seed: int, until: float) -> _Phase:
    """Start one server, warm it up, time the load until ``until``, stop it.

    The timed load runs in segments of ``SEGMENT_S``; between two, once
    every request in flight has been answered, a speed probe gives the
    factor that scales the segment's latencies to reference speed.
    """
    from repro.service import ServiceClient

    server, spans_path = _start_server(tmp, index, traced)
    clients = []
    try:
        clients += [ServiceClient("127.0.0.1", server.port) for _ in range(size.threads)]
        streams = [RequestStream(seed, t, size.batch_points) for t in range(size.threads)]
        per_thread = -(-size.warmup // size.threads)
        _drive(clients, streams, count=per_thread, deadline=math.inf)
        records, to_reference = [], []
        before = speed.measure()
        timed_from = time.perf_counter()
        until = max(until, timed_from + MIN_LOAD_S)
        while time.perf_counter() < until:
            deadline = min(until, time.perf_counter() + SEGMENT_S)
            segment = _drive(clients, streams, count=sys.maxsize, deadline=deadline)
            after = speed.measure()
            records += segment
            to_reference += [speed.factor(before, after)] * len(segment)
            before = after
        seconds = time.perf_counter() - timed_from
        rss_mb = server.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
        server.stop()
    spans = []
    if spans_path is not None:
        with open(spans_path, "rb") as fh:
            spans = pickle.load(fh)
    return _Phase(server, records, to_reference, seconds, timed_from, rss_mb, spans)


def _latencies(records: List[Record], kind: str, factors=None) -> List[float]:
    """Latencies of one class in ms, each times its factor if given."""
    factors = [1.0] * len(records) if factors is None else factors
    return [r.seconds * f * 1e3 for r, f in zip(records, factors) if r.request.kind == kind]


def _per_layer(plain: _Phase, traced: _Phase) -> Dict[str, float]:
    roots = [s for s in traced.spans if s.start >= traced.timed_from]
    surface_us = [
        span.duration * 1e6
        for span in layers.walk(roots)
        if span.name == "service.EmulatorService.point"
        and span.labels.get("source") == "surface"
    ]
    extra = {}
    if surface_us:
        server_p50 = statistics.median(surface_us)
        client_p50 = statistics.median(_latencies(traced.records, "point_hit")) * 1e3
        extra = {
            "service.point_surface_p50_us": server_p50,
            "service.http_overhead_us": client_p50 - server_p50,
        }

    def mean_latency(phase):
        return sum(r.seconds for r in phase.records) / len(phase.records)

    return layers.per_layer(
        roots,
        reps=len(traced.records),
        busy_seconds=sum(r.seconds for r in traced.records),
        overhead_frac=mean_latency(traced) / mean_latency(plain) - 1.0,
        extra=extra,
    )


def run(seed: int, seconds: float, trace: bool, tmp, size: str = "full") -> Outcome:
    params = SIZES[size]
    start = time.perf_counter()
    if trace:
        plain = _load_phase(tmp, 0, False, params, seed, start + seconds / 2)
        phase = _load_phase(tmp, 1, True, params, seed, start + seconds)
        phases = [plain, phase]
    else:
        servers = []
        for index in range(params.setups - 1):
            server, _ = _start_server(tmp, index, False)
            server.stop()
            servers.append(server)
        phase = _load_phase(tmp, params.setups, False, params, seed, start + seconds)
        servers.append(phase.server)
        phases = [phase]
    records = [r for p in phases for r in p.records]
    failures = check_values(records, random.Random(seed), params.check_share)
    failures.update(check_sources(records))
    outcome = Outcome(
        "service",
        {},
        attempted=len(records),
        failures=[failures[i] for i in sorted(failures)],
        title=(
            f"service: repro serve, closed loop of {params.threads} keep-alive "
            f"connections, {len(records)} requests"
        ),
    )
    if trace:
        outcome.metrics = _per_layer(plain, phase)
        outcome.trace_groups = [("service.server", phase.spans)]
        return outcome
    throughput = len(phase.records) / phase.seconds
    outcome.metrics = {
        "setup_s": statistics.median(server.setup_ref_s for server in servers),
        "peak_rss_mb": phase.rss_mb,
        "cold_ms": statistics.median(_latencies(records, "exact", phase.to_reference)),
        "warm_ms": statistics.median(_latencies(records, "point_hit", phase.to_reference)),
    }
    outcome.rows += timing_rows("setup_wall_s", [server.setup_s for server in servers], "s")
    for kind in EXPECTED_SOURCE:
        outcome.rows += timing_rows(kind, _latencies(records, kind), "ms")
    outcome.rows.append(Row("throughput_rps", throughput, "1/s", len(records)))
    return outcome
