"""The async HTTP surface end to end: real sockets, real clients.

A single background server (ephemeral port) is shared per module;
every test talks to it through :class:`ServiceClient` or a raw
request, including a concurrent burst that forces the cache-miss
fallback path under parallel load.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.emulator import DOMAINS, exact_values, fit_bank
from repro.experiments.params import DEFAULT_CONFIG, FAST_CONFIG
from repro.runner.cache import ResultCache
from repro.service import (
    BackgroundServer,
    EmulatorService,
    ServiceClient,
    ServiceClientError,
    metered,
)
from repro.service.http import MAX_BATCH_POINTS, ServiceServer


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    bank = fit_bank(quantities=("delta", "gamma"), loads=("poisson",))
    cache = ResultCache(tmp_path_factory.mktemp("svc-cache"))
    service = EmulatorService(bank=bank, cache=cache)
    with BackgroundServer(service) as running:
        yield running


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client):
        reply = client.health()
        assert reply["ok"] is True
        assert reply["surfaces"] == 2

    def test_surfaces_metadata(self, client):
        info = client.surfaces()
        keys = {s["quantity"] + "/" + s["load"] for s in info["surfaces"]}
        assert keys == {"delta/poisson", "gamma/poisson"}
        assert all("coefficients" not in s for s in info["surfaces"])

    def test_point_get_roundtrip(self, client):
        reply = client.request(
            "GET", "/v1/point?quantity=delta&load=poisson&utility=adaptive&x=120"
        )
        assert reply["source"] == "surface"
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [120.0])[0]
        assert abs(reply["value"] - exact) <= reply["certified_bound"]

    def test_point_post_roundtrip(self, client):
        reply = client.point("gamma", "poisson", "adaptive", 0.01)
        assert reply["source"] == "surface"
        assert 1.0 < reply["value"] < 2.8

    def test_batch_post_mixed_sources(self, client):
        hi = DOMAINS["delta"][1]
        reply = client.batch("delta", "poisson", "adaptive", [100.0, hi * 2.0])
        assert reply["source"] == "mixed"
        assert reply["sources"] == {"surface": 1, "exact": 1}

    def test_metrics_counts_requests(self, client):
        # metering is live only while obs is enabled (the `repro serve`
        # entry enables it; tests opt in explicitly)
        obs.reset()
        obs.enable()
        try:
            client.point("delta", "poisson", "adaptive", 100.0)
            metrics = client.metrics()
            counters = metrics["metrics"]["counters"]
            assert metrics["enabled"] is True
            assert counters.get("service.http.point.requests", 0) >= 1
            assert counters.get("service.points.surface", 0) >= 1
        finally:
            obs.disable()
            obs.reset()

    def test_keep_alive_reuses_one_connection(self, client):
        # several requests through the same client must not reconnect
        for x in (50.0, 100.0, 200.0):
            assert client.point("delta", "poisson", "adaptive", x)["value"] >= 0.0


class TestMeteredServer:
    """``repro serve`` meters its traffic but keeps none of its spans."""

    def test_spans_stay_flat_while_metrics_count(self):
        before = obs.tracer()
        with metered():
            bank = fit_bank(FAST_CONFIG, quantities=("delta",), loads=("poisson",))
            service = EmulatorService(FAST_CONFIG, bank=bank)
            # rigid queries always take the exact path, two model spans
            # per call under a tracer that kept them
            for i in range(2000):
                service.point("delta", "poisson", "rigid", 50.0 + 0.01 * i)
            assert obs.trace_roots() == []
            assert obs.snapshot()["counters"]["service.points.exact"] == 2000
            with BackgroundServer(service) as running:
                with ServiceClient(*running.address) as client:
                    client.point("delta", "poisson", "adaptive", 100.0)
                    client.point("delta", "poisson", "rigid", 100.5)
                    reply = client.metrics()
            assert obs.trace_roots() == []
        assert not obs.enabled() and obs.tracer() is before
        assert reply["enabled"] is True
        metrics = reply["metrics"]
        assert metrics["counters"]["service.http.point.requests"] == 2
        assert metrics["counters"]["service.points.exact"] == 2001
        assert metrics["histograms"]["service.http.point.latency_ms"]["count"] == 2


class TestErrorMapping:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("GET", "/v1/batch")
        assert exc.value.status == 405

    def test_bad_quantity_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("theta", "poisson", "adaptive", 100.0)
        assert exc.value.status == 400

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("POST", "/v1/point", {"quantity": "delta"})
        assert exc.value.status == 400

    def test_oversized_batch_grid_is_413(self, client):
        # refused on its length alone: the points are never converted,
        # so a non-numeric entry past the limit cannot turn it into 400;
        # the connection stays usable for the next request
        grid = [100.0] * MAX_BATCH_POINTS + ["not a number"]
        with pytest.raises(ServiceClientError) as exc:
            client.batch("delta", "poisson", "adaptive", grid)
        assert exc.value.status == 413
        assert str(MAX_BATCH_POINTS) in str(exc.value)
        at_limit = client.batch(
            "delta", "poisson", "adaptive", [100.0] * MAX_BATCH_POINTS
        )
        assert len(at_limit["values"]) == MAX_BATCH_POINTS

    def test_non_numeric_x_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request(
                "GET", "/v1/point?quantity=delta&load=poisson&utility=adaptive&x=abc"
            )
        assert exc.value.status == 400


class TestFraming:
    @pytest.mark.parametrize(
        "length",
        ["abc", "1e3", "-5", "9" * 5000],
        ids=["word", "exponent", "negative", "5000-digits"],
    )
    def test_malformed_content_length_is_refused(self, server, caplog, length):
        # answered on the same socket, never dropped with a logged
        # traceback; the server then answers the next client
        host, port = server.address
        request = (
            "POST /v1/point HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(request.encode("ascii"))
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status = 413 if length.isdigit() else 400
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert "error" in json.loads(body)
        with ServiceClient(host, port) as client:
            assert client.health()["ok"] is True
        assert not [r for r in caplog.records if r.exc_info is not None]


class TestInlineRouting:
    """Queries only a surface answers run on the event loop; every query
    that may reach a solver, or is refused by the core, runs on the
    executor."""

    POINT = {"quantity": "delta", "load": "poisson", "utility": "adaptive"}

    @pytest.mark.parametrize(
        "path, body, offloaded, status",
        [
            ("/v1/point", {"x": 120.0}, False, 200),
            ("/v1/point", {"x": 800.0}, True, 200),
            ("/v1/point", {"x": 120.0, "utility": "rigid"}, True, 200),
            ("/v1/point", {"x": 120.0, "kbar": 100.0}, True, 200),
            ("/v1/point", {"x": 120.0, "engine": "meanfield"}, True, 200),
            ("/v1/point", {"x": 120.0, "quantity": "theta"}, True, 400),
            ("/v1/point", {"x": 120.0, "load": "exponential"}, True, 200),
            ("/v1/batch", {"x": [20.0, 120.0, 400.0]}, False, 200),
            ("/v1/batch", {"x": [120.0, 800.0]}, True, 200),
            ("/v1/batch", {"x": [120.0], "kbar": 80.0}, True, 200),
            ("/v1/batch", {"x": [120.0], "engine": "meanfield"}, True, 200),
            ("/v1/batch", {"x": []}, False, 400),
            ("/v1/batch", {"x": [120.0], "quantity": "theta"}, True, 400),
        ],
    )
    def test_solver_bound_queries_go_to_the_executor(
        self, client, monkeypatch, path, body, offloaded, status
    ):
        calls = []
        offload = ServiceServer._offload

        async def spy(self, call):
            calls.append(call)
            return await offload(self, call)

        monkeypatch.setattr(ServiceServer, "_offload", spy)
        try:
            client.request("POST", path, {**self.POINT, **body})
            got = 200
        except ServiceClientError as exc:
            got = exc.status
        assert (bool(calls), got) == (offloaded, status)


class TestConcurrency:
    def test_parallel_clients_hitting_the_fallback(self, server):
        # every worker sends a mix of surface hits and *uncached*
        # out-of-domain points, so the exact-fallback ladder runs under
        # real request concurrency
        host, port = server.address
        hi = DOMAINS["delta"][1]
        errors = []
        replies = []

        def worker(idx: int):
            try:
                with ServiceClient(host, port) as c:
                    for i in range(10):
                        x = 50.0 + 7.0 * ((idx * 10 + i) % 40)
                        replies.append(c.point("delta", "poisson", "adaptive", x))
                    burst = c.batch(
                        "delta", "poisson", "adaptive", [hi * 2.0, hi * 2.5]
                    )
                    assert burst["source"] == "exact"
                    replies.append(burst)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(replies) == 6 * 11
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [hi * 2.0])[0]
        bursts = [r for r in replies if r.get("source") == "exact"]
        assert bursts and all(
            r["values"][0] == pytest.approx(exact, rel=1e-9) for r in bursts
        )


class TestMeanFieldEngineHint:
    def test_point_roundtrip_with_engine_hint(self, client):
        reply = client.point(
            "delta", "poisson", "adaptive", 110.0, engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [110.0])[0]
        assert reply["value"] == pytest.approx(exact, abs=2e-3)

    def test_batch_roundtrip_with_engine_hint(self, client):
        reply = client.batch(
            "delta", "poisson", "adaptive", [100.0, 120.0], engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        assert reply["sources"]["meanfield"] == 2

    def test_engine_hint_via_query_string(self, client):
        reply = client.request(
            "GET",
            "/v1/point?quantity=delta&load=poisson&utility=adaptive"
            "&x=110&engine=meanfield",
        )
        assert reply["source"] == "meanfield"

    def test_out_of_envelope_refusal_maps_to_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point(
                "delta", "exponential", "adaptive", 110.0, engine="meanfield"
            )
        assert exc.value.status == 400
        assert "OutOfDomainError" in str(exc.value)

    def test_unknown_engine_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("delta", "poisson", "adaptive", 110.0, engine="warp")
        assert exc.value.status == 400

    def test_non_delta_quantity_with_engine_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("gamma", "poisson", "adaptive", 110.0, engine="meanfield")
        assert exc.value.status == 400


_REFUSAL_PROBE = """
import json, resource
from repro.emulator.bank import SurfaceBank
from repro.service import BackgroundServer, EmulatorService, ServiceClient, ServiceClientError
service = EmulatorService(bank=SurfaceBank(config_digest="none"))
statuses = {}
with BackgroundServer(service) as server, ServiceClient(*server.address) as client:
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for quantity, x in (("delta", 0.95e12), ("Delta", 0.95e12), ("gamma", 0.05)):
        try:
            client.point(quantity, "poisson", "adaptive", x, kbar=1e12)
            statuses[quantity] = 200
        except ServiceClientError as exc:
            statuses[quantity] = exc.status
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"statuses": statuses, "added_mb": (peak - base) / 1024.0}))
"""


def test_exact_path_refuses_where_no_plan_certifies():
    # a Poisson window at kbar = 1e12 spans ~2e7 terms, past the dense
    # cap: every exact query is a 400, decided before any census array
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _REFUSAL_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    reply = json.loads(out.stdout.strip().splitlines()[-1])
    assert reply["statuses"] == {"delta": 400, "Delta": 400, "gamma": 400}
    assert reply["added_mb"] < 100.0
