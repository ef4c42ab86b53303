"""Processes the harness starts: fresh spawn children and `repro serve`.

Users run ``repro run-all``, ``repro verify`` and trace replays in a new
process, so those workloads run each repetition in a fresh ``spawn``
child: process-wide memo tables start empty, and the time from spawn to
the child's ``ready()`` call is the set-up time.  Every process started
here is waited for, and killed if it outlives its timeout.
"""

from __future__ import annotations

import http.client
import multiprocessing
import signal
import socket
import subprocess
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from perfbench import speed

_SPAWN = multiprocessing.get_context("spawn")

#: Longest a child may take from spawn to its result.
CHILD_TIMEOUT_S = 150.0

#: Longest a server may take from spawn to its first healthy answer.
SERVER_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChildRun:
    """One child's set-up time (spawn to ready) and its payload."""

    setup_s: float
    #: ``setup_s`` at reference speed, by probes before spawn and after ready
    setup_ref_s: float
    payload: dict


def _child_main(conn, fn, args) -> None:
    probes = []

    def ready():
        conn.send(("ready", None))
        probes.append(speed.measure())

    try:
        payload = fn(ready, *args)
        conn.send(("done", (payload, probes[0] if probes else None)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_child(fn: Callable, *args) -> ChildRun:
    """Run ``fn(ready, *args)`` in a fresh spawn child; return its payload.

    ``fn`` must be a module-level function; it calls ``ready()`` once
    its imports and inputs are in place.
    """
    reader, writer = _SPAWN.Pipe(duplex=False)
    proc = _SPAWN.Process(target=_child_main, args=(writer, fn, args))
    before = speed.measure()
    start = time.perf_counter()
    proc.start()
    writer.close()
    ready_at = None
    try:
        while True:
            if not reader.poll(CHILD_TIMEOUT_S):
                raise RuntimeError(f"child {fn.__name__} timed out")
            try:
                kind, data = reader.recv()
            except EOFError:
                raise RuntimeError(
                    f"child {fn.__name__} died (exit code {proc.exitcode})"
                ) from None
            if kind == "ready":
                ready_at = time.perf_counter()
            elif kind == "done":
                payload, probe = data
                if ready_at is None or probe is None:
                    raise RuntimeError(f"child {fn.__name__} never called ready()")
                setup_s = ready_at - start
                return ChildRun(setup_s, setup_s * speed.factor(before, probe), payload)
            else:
                raise RuntimeError(f"child {fn.__name__} failed:\n{data}")
    except BaseException:
        proc.kill()
        raise
    finally:
        reader.close()
        try:
            proc.join(timeout=30.0)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The first spawn child starts the tracker as a helper process of the
    harness; left alone it ends only once it notices the harness has
    exited, so it would outlive the run.  Later children start a new one.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def timed(
    op: Callable[[], object], count: int = 1
) -> Tuple[list, List[float], List[float]]:
    """Run ``op()`` ``count`` times; its results, wall seconds, and wall
    seconds at reference speed (by the probes right before and after
    each call; see :mod:`perfbench.speed`)."""
    results, seconds, at_reference = [], [], []
    before = speed.measure()
    for _ in range(count):
        start = time.perf_counter()
        results.append(op())
        seconds.append(time.perf_counter() - start)
        after = speed.measure()
        at_reference.append(seconds[-1] * speed.factor(before, after))
        before = after
    return results, seconds, at_reference


def repeat_children(
    fn: Callable, args_for: Callable[[int], Sequence], *, seconds: float, min_reps: int
) -> List[ChildRun]:
    """Run fresh children back to back for about ``seconds``.

    Another child starts only while the mean repetition so far still
    fits in the budget, so a run ends close to ``seconds`` instead of
    overshooting by a whole repetition.
    """
    runs: List[ChildRun] = []
    start = time.perf_counter()
    while True:
        if len(runs) >= min_reps:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(runs) > seconds:
                return runs
        runs.append(run_child(fn, *args_for(len(runs))))


def free_port() -> int:
    """A TCP port on localhost that nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess on localhost."""

    def __init__(self, argv: Sequence[str], *, port: int, cwd, env: dict, log_path):
        self.port = port
        self._log = open(log_path, "wb")
        before = speed.measure()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: spawn to the first ``/healthz`` 200, in seconds
        self.setup_s = time.perf_counter() - start
        #: ``setup_s`` at reference speed, by probes around the start
        self.setup_ref_s = self.setup_s * speed.factor(before, speed.measure())

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before answering"
                )
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
        raise RuntimeError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server as Ctrl-C would, and wait for it to exit.

        The server is killed if it has not exited in time, or if the wait
        itself is interrupted.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._log.close()

