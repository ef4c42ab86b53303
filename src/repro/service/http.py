"""Async HTTP/JSON front end for the emulator service — stdlib only.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`
(no web framework; the package's no-new-runtime-deps rule is load
bearing).  Queries a surface alone answers
(:meth:`EmulatorService.covers`) run inline on the event loop — a
point query is ~2 us of pure Python — while every other query is
pushed to a thread pool so one cold solver run cannot stall every
other connection.

Endpoints (all JSON):

- ``GET  /healthz``                      liveness + bank size
- ``GET  /v1/surfaces``                  bank metadata (bounds, domains)
- ``GET  /v1/point?quantity=&load=&utility=&x=[&kbar=]``
- ``POST /v1/point``                     same fields as JSON body
- ``POST /v1/batch``                     ``{"x": [...], ...}`` grids of at
  most :data:`MAX_BATCH_POINTS` points (longer grids answer 413)
- ``GET  /v1/metrics``                   obs snapshot (when enabled)

Per-endpoint request counters and latency histograms are recorded
under ``service.http.*`` when :mod:`repro.obs` is enabled; server
lifecycle and fallback decisions go to the event journal.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Optional, Tuple

from repro import obs
from repro.errors import OutOfDomainError, ReproError
from repro.obs.tracing import SpanRecord, Tracer
from repro.service.core import EmulatorService, QueryError

#: Largest accepted request body (a 100k-point batch is ~2 MB).
MAX_BODY_BYTES = 8 << 20

#: Largest accepted request-line + headers block.
MAX_HEADER_BYTES = 64 << 10

#: Most grid points one ``/v1/batch`` request may ask for; a longer
#: grid is refused with 413 before any of its points is converted or
#: evaluated.
MAX_BATCH_POINTS = 4096

#: Exact fallbacks run here so the event loop never blocks on a solver.
DEFAULT_EXECUTOR_WORKERS = 4


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response_bytes(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


class ServiceServer:
    """One service instance bound to one listening socket."""

    def __init__(
        self,
        service: EmulatorService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
    ):
        self.service = service
        self.host = host
        self.port = port  #: updated to the bound port after start()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="svc-exact"
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.emit("service.start", host=self.host, port=self.port)
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)
        obs.emit("service.stop", host=self.host, port=self.port)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                method, path, query, body, keep_alive = request
                status, payload = await self._route(method, path, query, body)
                writer.write(
                    _response_bytes(status, payload, keep_alive=keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except _HttpError as exc:
            # malformed framing: answer if the socket still works, then drop
            try:
                writer.write(
                    _response_bytes(
                        exc.status, {"error": exc.message}, keep_alive=False
                    )
                )
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, dict, Optional[dict], bool]]:
        """One parsed request, or ``None`` on a clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large") from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        try:
            lines = head.decode("ascii").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        length_text = headers.get("content-length", "0") or "0"
        if not length_text.isdigit():
            raise _HttpError(400, f"malformed Content-Length: {length_text[:32]!r}")
        # more digits than the limit has is over it (and int() refuses
        # strings of thousands of digits)
        if len(length_text) > len(str(MAX_BODY_BYTES)) or int(length_text) > MAX_BODY_BYTES:
            raise _HttpError(413, "body too large")
        length = int(length_text)
        body: Optional[dict] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise _HttpError(400, "body is not valid JSON") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "body must be a JSON object")
        parsed = urllib.parse.urlsplit(target)
        query = {
            k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()
        }
        return method.upper(), parsed.path, query, body, keep_alive

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, query: dict, body: Optional[dict]
    ) -> Tuple[int, dict]:
        endpoint = {
            "/healthz": "healthz",
            "/v1/surfaces": "surfaces",
            "/v1/metrics": "metrics",
            "/v1/point": "point",
            "/v1/batch": "batch",
        }.get(path)
        if endpoint is None:
            return 404, {"error": f"no such endpoint: {path}"}
        started = time.perf_counter()
        try:
            if endpoint in ("healthz", "surfaces", "metrics"):
                if method != "GET":
                    return 405, {"error": f"{endpoint} is GET-only"}
                if endpoint == "healthz":
                    return 200, {"ok": True, "surfaces": len(self.service.bank)}
                if endpoint == "surfaces":
                    return 200, self.service.describe()
                return 200, {"enabled": obs.enabled(), "metrics": obs.snapshot()}
            if method not in ("GET", "POST"):
                return 405, {"error": f"{endpoint} accepts GET or POST"}
            if endpoint == "batch" and method != "POST":
                return 405, {"error": "batch is POST-only"}
            params = dict(query)
            if body:
                params.update(body)
            return 200, await self._answer(endpoint, params)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}
        except QueryError as exc:
            return 400, {"error": str(exc)}
        except OutOfDomainError as exc:
            # the mean-field engine refuses rather than extrapolates;
            # a refusal is the client's answer, not a server fault
            return 400, {"error": f"OutOfDomainError: {exc}"}
        except ReproError as exc:
            # surfaces never raise through the default service ladder
            # (the core falls back), so any ReproError here is a
            # solver-side failure on a valid-looking query
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        except (TypeError, ValueError, KeyError) as exc:
            return 400, {"error": f"bad query: {exc}"}
        finally:
            if obs.enabled():
                elapsed_ms = (time.perf_counter() - started) * 1e3
                obs.counter(f"service.http.{endpoint}.requests").inc()
                obs.histogram(f"service.http.{endpoint}.latency_ms").observe(
                    elapsed_ms
                )

    async def _answer(self, endpoint: str, params: dict) -> dict:
        quantity = str(params.get("quantity", "delta"))
        load = str(params.get("load", "poisson"))
        utility = str(params.get("utility", "adaptive"))
        kbar = params.get("kbar")
        kbar_f = None if kbar is None else float(kbar)
        engine = params.get("engine")
        engine_s = None if engine is None else str(engine)
        if endpoint == "point":
            if "x" not in params:
                raise QueryError("missing required parameter: x")
            x = float(params["x"])
            grid, answer = [x], self.service.point
        else:
            xs = params.get("x")
            if not isinstance(xs, (list, tuple)):
                raise QueryError("batch requires x as a JSON array")
            if len(xs) > MAX_BATCH_POINTS:
                raise _HttpError(
                    413,
                    f"batch grid has {len(xs)} points; the limit is {MAX_BATCH_POINTS}",
                )
            x = grid = [float(v) for v in xs]
            answer = self.service.batch

        def call():
            return answer(quantity, load, utility, x, kbar=kbar_f, engine=engine_s)

        if self.service.covers(quantity, load, utility, grid, kbar=kbar_f, engine=engine_s):
            # certified fast path: answer on the event loop
            return call()
        return await self._offload(call)

    async def _offload(self, call):
        """Run a possibly-exact query on the fallback thread pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, call
        )


class _SpanlessTracer(Tracer):
    """A tracer that drops every span tree as it finishes."""

    def adopt(self, record: SpanRecord) -> None:
        """Keep nothing."""


@contextmanager
def metered():
    """Observability as ``repro serve`` runs it: metrics on, spans dropped.

    ``/v1/metrics`` reads the counters and latency histograms.  Nothing
    reads the spans the instrumented models open, two or more per exact
    query, so they are dropped as they finish and a long-running
    server's memory does not grow with its traffic.  On exit obs is
    disabled again, with the tracer it had before.
    """
    previous = obs.tracer()
    obs.reset()
    obs.enable(tracer=_SpanlessTracer())
    try:
        yield
    finally:
        obs.enable(tracer=previous)
        obs.disable()


async def serve(
    service: EmulatorService,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
) -> None:
    """Run the service until cancelled (the ``repro serve`` entry)."""
    server = ServiceServer(
        service, host=host, port=port, executor_workers=executor_workers
    )
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class BackgroundServer:
    """A server on a daemon thread — the test/bench harness.

    ::

        with BackgroundServer(EmulatorService()) as server:
            client = ServiceClient(*server.address)
            ...
    """

    def __init__(
        self,
        service: EmulatorService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
    ):
        self._server = ServiceServer(
            service, host=host, port=port, executor_workers=executor_workers
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self._server.host, self._server.port)

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="svc-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError("service failed to start") from self._failure
        return self

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _serve():
            try:
                await self._server.start()
            except BaseException as exc:  # bind failures must unblock wait()
                self._failure = exc
                raise
            finally:
                self._ready.set()
            assert self._server._server is not None
            await self._server._server.serve_forever()

        try:
            loop.run_until_complete(_serve())
        except asyncio.CancelledError:
            pass
        except BaseException:
            if not self._ready.is_set():
                self._ready.set()
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        await self._server.stop()
        for task in asyncio.all_tasks():
            task.cancel()


__all__ = [
    "ServiceServer",
    "BackgroundServer",
    "metered",
    "serve",
    "MAX_BATCH_POINTS",
    "MAX_BODY_BYTES",
    "DEFAULT_EXECUTOR_WORKERS",
]
