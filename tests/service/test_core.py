"""The service query engine: surface fast path, cache fallback, locks.

The fixture bank fits only ``delta``/``gamma`` over the poisson load so
the module stays fast; every other triple exercises the exact-fallback
ladder, which is precisely what these tests are about.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys
import threading

import numpy as np
import pytest

from repro.emulator import DOMAINS, exact_values, fit_bank
from repro.experiments.params import DEFAULT_CONFIG
from repro.runner.cache import ResultCache
from repro.service import EmulatorService, QueryError
from repro.service import core as service_core

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "figures.json"


@pytest.fixture(scope="module")
def bank():
    return fit_bank(quantities=("delta", "gamma"), loads=("poisson",))


@pytest.fixture()
def service(bank, tmp_path):
    return EmulatorService(bank=bank, cache=ResultCache(tmp_path / "cache"))


class TestPointQueries:
    def test_in_domain_point_comes_from_the_surface(self, service):
        reply = service.point("delta", "poisson", "adaptive", 120.0)
        assert reply["source"] == "surface"
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [120.0])[0]
        assert abs(reply["value"] - exact) <= reply["certified_bound"]

    def test_out_of_domain_point_falls_back_to_exact(self, service):
        hi = DOMAINS["delta"][1]
        reply = service.point("delta", "poisson", "adaptive", hi * 2.0)
        assert reply["source"] == "exact"
        assert reply["certified_bound"] is None
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [hi * 2.0])[0]
        assert reply["value"] == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_unfitted_utility_is_always_exact(self, service):
        reply = service.point("delta", "poisson", "rigid", 120.0)
        assert reply["source"] == "exact"

    def test_surface_values_are_clipped_nonnegative(self, service):
        # delta and Delta are gaps (>= 0 exactly); any fit wiggle below
        # zero must not leak out of the service
        lo, hi = DOMAINS["delta"]
        replies = service.batch(
            "delta", "poisson", "adaptive", np.linspace(lo, hi, 101)
        )
        assert min(replies["values"]) >= 0.0

    @pytest.mark.parametrize("x", [0.0, -5.0, float("inf"), float("nan")])
    def test_bad_points_are_rejected(self, service, x):
        with pytest.raises(QueryError):
            service.point("delta", "poisson", "adaptive", x)

    @pytest.mark.parametrize(
        "triple",
        [
            ("theta", "poisson", "adaptive"),
            ("delta", "bimodal", "adaptive"),
            ("delta", "poisson", "elastic"),
        ],
    )
    def test_unknown_names_are_rejected(self, service, triple):
        with pytest.raises(QueryError):
            service.point(*triple, 120.0)


class TestBatchQueries:
    def test_mixed_grid_splits_by_domain(self, service):
        hi = DOMAINS["delta"][1]
        reply = service.batch("delta", "poisson", "adaptive", [100.0, hi * 2.0])
        assert reply["source"] == "mixed"
        assert reply["sources"] == {"surface": 1, "exact": 1}
        assert reply["certified_bound"] is not None
        exact_out = exact_values(
            "delta", DEFAULT_CONFIG, "poisson", "adaptive", [hi * 2.0]
        )[0]
        assert reply["values"][1] == pytest.approx(exact_out, rel=1e-9, abs=1e-12)

    def test_empty_grid_rejected(self, service):
        with pytest.raises(QueryError):
            service.batch("delta", "poisson", "adaptive", [])

    def test_kbar_what_if_routes_to_exact_without_a_2d_surface(self, service):
        reply = service.batch(
            "delta", "poisson", "adaptive", [100.0, 150.0], kbar=80.0
        )
        assert reply["source"] == "exact"
        assert len(reply["values"]) == 2

    def test_large_kbar_what_if_matches_the_dense_reference(self, service):
        # at kbar = 1e7 the Poisson census lies far past a dense head
        # counted from k = 0: the exact path must sum where the mass is
        pins = json.loads(GOLDEN.read_text())["poisson_large_kbar"]
        c = pins["capacity"][1]
        for quantity, rtol in (("delta", 1e-9), ("Delta", 1e-6)):
            reply = service.point(quantity, "poisson", "adaptive", c, kbar=pins["kbar"])
            assert reply["source"] == "exact"
            assert reply["value"] == pytest.approx(pins["adaptive"][quantity][1], rel=rtol)

    def test_gamma_served_from_its_log_surface(self, service):
        reply = service.batch("gamma", "poisson", "adaptive", [1e-3, 0.01, 0.3])
        assert reply["source"] == "surface"
        # gamma in [1, e) per the paper's welfare bound; at small p
        # Poisson/adaptive gamma - 1 is below float resolution
        assert all(1.0 <= v < np.e for v in reply["values"])


class TestCacheFallback:
    def test_second_miss_is_a_disk_hit(self, service):
        hi = DOMAINS["delta"][1]
        grid = [hi * 1.5, hi * 2.0]
        first = service.batch("delta", "poisson", "adaptive", grid)
        entries = list(service.cache.root.rglob("*.json"))
        assert len(entries) == 1  # the miss was stored
        mtime = entries[0].stat().st_mtime_ns
        second = service.batch("delta", "poisson", "adaptive", grid)
        assert second["values"] == first["values"]
        # served from the entry, not recomputed-and-rewritten
        assert entries[0].stat().st_mtime_ns == mtime

    def test_concurrent_cold_misses_agree(self, service):
        # the per-triple lock serialises the thundering herd; every
        # thread must see the same exact answer and no exceptions
        hi = DOMAINS["delta"][1]
        grid = [hi * 3.0, hi * 4.0]
        results, errors = [], []

        def query():
            try:
                results.append(
                    tuple(service.batch("delta", "poisson", "adaptive", grid)["values"])
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(results)) == 1
        expected = tuple(
            exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [x])[0]
            for x in grid
        )
        assert results[0] == pytest.approx(expected, rel=1e-9)
        # the herd resolved to a single stored computation
        assert len(list(service.cache.root.rglob("*.json"))) == 1

    def test_service_without_a_cache_still_answers(self, bank):
        svc = EmulatorService(bank=bank, cache=None)
        hi = DOMAINS["delta"][1]
        reply = svc.point("delta", "poisson", "adaptive", hi * 2.0)
        assert reply["source"] == "exact"


class TestDescribe:
    def test_metadata_without_coefficients(self, service):
        info = service.describe()
        assert info["config_digest"] == service.bank.config_digest
        assert len(info["surfaces"]) == 2
        assert all("coefficients" not in s for s in info["surfaces"])
        assert info["cache"] is True


class TestMeanFieldEngine:
    def test_explicit_hint_answers_from_the_engine(self, service):
        from repro.meanfield import MeanFieldSimulator
        from repro.simulation import BirthDeathProcess, Link

        grid = [100.0, 110.0, 130.0]
        reply = service.batch(
            "delta", "poisson", "adaptive", grid, engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        assert reply["sources"] == {"surface": 0, "exact": 0, "meanfield": 3}
        assert reply["certified_bound"] is None
        expected = MeanFieldSimulator(
            BirthDeathProcess(DEFAULT_CONFIG.load("poisson")),
            Link(DEFAULT_CONFIG.kbar),
        ).gap_batch(DEFAULT_CONFIG.utility("adaptive"), grid)
        assert reply["values"] == pytest.approx(list(expected), rel=1e-12)

    def test_meanfield_gap_tracks_the_exact_delta(self, service):
        # the O(1/N) diffusion answer vs the exact solver at N = 100:
        # close, but served without any simulation or series sum
        reply = service.point(
            "delta", "poisson", "adaptive", 110.0, engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [110.0])[0]
        assert reply["value"] == pytest.approx(exact, abs=2e-3)

    def test_kbar_override_scales_the_population(self, service):
        reply = service.batch(
            "delta", "poisson", "adaptive", [55.0], kbar=50.0, engine="meanfield"
        )
        assert reply["kbar"] == 50.0
        exact = exact_values(
            "delta",
            dataclasses.replace(DEFAULT_CONFIG, kbar=50.0),
            "poisson",
            "adaptive",
            [55.0],
        )[0]
        assert reply["values"][0] == pytest.approx(exact, abs=2e-3)

    def test_simulator_is_memoised_per_load_and_population(self, service):
        sims = service._meanfield_sims
        key = f"poisson/{DEFAULT_CONFIG.kbar!r}"
        service.batch("delta", "poisson", "adaptive", [100.0], engine="meanfield")
        first, count = sims.get(key), len(sims)
        assert first is not None
        service.batch("delta", "poisson", "rigid", [120.0], engine="meanfield")
        assert sims.get(key) is first and len(sims) == count
        service.batch(
            "delta", "poisson", "adaptive", [55.0], kbar=50.0, engine="meanfield"
        )
        assert len(sims) == count + 1
        assert sims.get(key) is first

    def test_kbar_equal_to_six_digits_keeps_its_own_simulator(self, bank, service, tmp_path):
        # 100.0001 and 100.0004 both print as 100 under %g: each gets
        # its own simulator and answers as a fresh service does
        query = ("delta", "poisson", "adaptive", [105.0])
        count = len(service._meanfield_sims)
        for kbar in (100.0001, 100.0004):
            reply = service.batch(*query, kbar=kbar, engine="meanfield")
            fresh = EmulatorService(bank=bank, cache=ResultCache(tmp_path / repr(kbar)))
            expected = fresh.batch(*query, kbar=kbar, engine="meanfield")
            assert reply["values"] == expected["values"]
        assert len(service._meanfield_sims) == count + 2

    def test_per_kbar_tables_stay_bounded(self, bank, tmp_path, monkeypatch):
        # every distinct client kbar keys one lock and one simulator;
        # past the bound the oldest go, and a rebuilt one answers alike
        monkeypatch.setattr(service_core, "TABLE_BOUND", 2)
        service = EmulatorService(bank=bank, cache=ResultCache(tmp_path / "cache"))
        query = ("delta", "poisson", "adaptive", [55.0])
        first = service.batch(*query, kbar=50.0, engine="meanfield")["values"]
        for kbar in (60.0, 70.0, 80.0, 90.0):
            service.batch(*query, kbar=kbar, engine="meanfield")
            assert len(service._meanfield_sims) <= 2
            assert len(service._locks) <= 2
        assert len(service._meanfield_sims) == len(service._locks) == 2
        assert f"poisson/{50.0!r}" not in service._meanfield_sims
        again = service.batch(*query, kbar=50.0, engine="meanfield")["values"]
        assert again == first

    def test_bounded_tables_under_concurrent_clients(self, bank, tmp_path, monkeypatch):
        # more threads than cores race more distinct kbar values than the
        # tables hold: every query answers, equal queries agree, and
        # neither table passes its bound
        monkeypatch.setattr(service_core, "TABLE_BOUND", 3)
        service = EmulatorService(bank=bank, cache=ResultCache(tmp_path / "cache"))
        kbars = [50.0 + 5.0 * i for i in range(6)]
        answers = {kbar: [] for kbar in kbars}
        errors = []

        def client(kbar):
            try:
                reply = service.batch(
                    "delta", "poisson", "adaptive", [55.0], kbar=kbar, engine="meanfield"
                )
                answers[kbar].append(reply["values"])
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(kbar,)) for kbar in kbars for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for replies in answers.values():
            assert len(replies) == 3 and replies[1] == replies[0] == replies[2]
        assert len(service._meanfield_sims) <= 3
        assert len(service._locks) <= 3

    def test_non_delta_quantities_are_refused(self, service):
        with pytest.raises(QueryError, match="delta"):
            service.batch("gamma", "poisson", "adaptive", [100.0], engine="meanfield")

    def test_unknown_engine_is_refused(self, service):
        with pytest.raises(QueryError, match="engine"):
            service.batch("delta", "poisson", "adaptive", [100.0], engine="warp")

    def test_out_of_envelope_load_is_refused_not_extrapolated(self, service):
        from repro.errors import OutOfDomainError

        with pytest.raises(OutOfDomainError):
            service.batch(
                "delta", "exponential", "adaptive", [100.0], engine="meanfield"
            )

    def test_describe_advertises_the_engine_hint(self, service):
        assert service.describe()["engines"] == ["meanfield"]


NAN = float("nan")


def _point(quantity, load, utility, x, value, source, bound=None):
    return {
        "quantity": quantity,
        "load": load,
        "utility": utility,
        "x": x,
        "value": value,
        "source": source,
        "certified_bound": bound,
    }


def _batch(quantity, load, utility, xs, values, sources, source, bound=None, **extra):
    return {
        "quantity": quantity,
        "load": load,
        "utility": utility,
        "x": xs,
        "values": values,
        "source": source,
        "sources": sources,
        "certified_bound": bound,
        **extra,
    }


def _error(message):
    return {"error": message}


DELTA_BOUND = 2.8352734073935904e-05
ONE_EXACT, TWO_EXACT = {"surface": 0, "exact": 1}, {"surface": 0, "exact": 2}
TWO_MEANFIELD = {"surface": 0, "exact": 0, "meanfield": 2}

#: One row per query class: the call, and the response as parsed JSON
#: (a 400's body for a refusal).  Values are pinned at rtol 1e-7, so a
#: query that changes path (a surface answer differs from the exact one
#: by up to its certified bound) shows here.
PINNED = [
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 120.0), {},
        _point(
            "delta", "poisson", "adaptive", 120.0, 9.821902286162587e-06, "surface", DELTA_BOUND
        ),
        id="surface-point",
    ),
    pytest.param(
        "batch", ("gamma", "poisson", "adaptive", [0.001, 0.01, 0.3]), {},
        _batch(
            "gamma", "poisson", "adaptive", [0.001, 0.01, 0.3],
            [1.0000000000000624, 1.0000000000000178, 1.0000000000214906],
            {"surface": 3, "exact": 0}, "surface", 4.68158845023936e-12,
        ),
        id="surface-batch",
    ),
    pytest.param(
        "point", ("delta", "poisson", "rigid", 120.0), {},
        _point("delta", "poisson", "rigid", 120.0, 0.02720319489402323, "exact"),
        id="rigid-point",
    ),
    pytest.param(
        "batch", ("Delta", "poisson", "rigid", [80.0, 150.0]), {},
        _batch(
            "Delta", "poisson", "rigid", [80.0, 150.0],
            [29.000000000036778, 9.000000000080234], TWO_EXACT, "exact",
        ),
        id="rigid-batch",
    ),
    pytest.param(
        "point", ("gamma", "algebraic", "rigid", 0.28), {},
        _point("gamma", "algebraic", "rigid", 0.28, NAN, "exact"),
        id="rigid-gamma-nan",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 800.0), {},
        _point("delta", "poisson", "adaptive", 800.0, 0.0, "exact"),
        id="out-of-domain-point",
    ),
    pytest.param(
        "point", ("delta", "exponential", "adaptive", 120.0), {},
        _point("delta", "exponential", "adaptive", 120.0, 0.017308058512531366, "exact"),
        id="unfitted-load-point",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", [100.0, 800.0]), {},
        _batch(
            "delta", "poisson", "adaptive", [100.0, 800.0], [0.0006366276816288825, 0.0],
            {"surface": 1, "exact": 1}, "mixed", DELTA_BOUND,
        ),
        id="mixed-batch",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 90.0), {"kbar": 80.0},
        _point("delta", "poisson", "adaptive", 90.0, 9.454492938609782e-05, "exact"),
        id="kbar-delta-point",
    ),
    pytest.param(
        "point", ("Delta", "exponential", "adaptive", 90.0), {"kbar": 120.0},
        _point("Delta", "exponential", "adaptive", 90.0, 10.029518236837418, "exact"),
        id="kbar-Delta-point",
    ),
    pytest.param(
        "point", ("gamma", "exponential", "adaptive", 0.05), {"kbar": 80.0},
        _point("gamma", "exponential", "adaptive", 0.05, 1.0011252191062119, "exact"),
        id="kbar-gamma-point",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", [60.0, 90.0, 800.0]), {"kbar": 80.0},
        _batch(
            "delta", "poisson", "adaptive", [60.0, 90.0, 800.0],
            [0.009549527262350754, 9.454492938631986e-05, 1.1102230246251565e-16],
            {"surface": 0, "exact": 3}, "exact", kbar=80.0,
        ),
        id="kbar-delta-batch",
    ),
    pytest.param(
        "batch", ("Delta", "exponential", "adaptive", [90.0, 150.0]), {"kbar": 120.0},
        _batch(
            "Delta", "exponential", "adaptive", [90.0, 150.0],
            [10.029518236837418, 7.8087996581165555], TWO_EXACT, "exact", kbar=120.0,
        ),
        id="kbar-Delta-batch",
    ),
    pytest.param(
        "batch", ("gamma", "exponential", "adaptive", [0.01, 0.05]), {"kbar": 80.0},
        _batch(
            "gamma", "exponential", "adaptive", [0.01, 0.05],
            [1.0000127678625335, 1.0011252191062119], TWO_EXACT, "exact", kbar=80.0,
        ),
        id="kbar-gamma-batch",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 110.0), {"engine": "meanfield"},
        _point("delta", "poisson", "adaptive", 110.0, 9.00289656949882e-05, "meanfield"),
        id="meanfield-point",
    ),
    pytest.param(
        "point", ("delta", "poisson", "rigid", 55.0), {"engine": "meanfield", "kbar": 50.0},
        _point("delta", "poisson", "rigid", 55.0, 0.23698229755267197, "meanfield"),
        id="meanfield-point-kbar",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", [100.0, 120.0]), {"engine": "meanfield"},
        _batch(
            "delta", "poisson", "adaptive", [100.0, 120.0],
            [0.0006246835930906469, 6.51171884202828e-06], TWO_MEANFIELD, "meanfield",
        ),
        id="meanfield-batch",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", [55.0, 70.0]),
        {"engine": "meanfield", "kbar": 50.0},
        _batch(
            "delta", "poisson", "adaptive", [55.0, 70.0],
            [0.00031600849224433514, 7.33841436506566e-07], TWO_MEANFIELD, "meanfield",
            kbar=50.0,
        ),
        id="meanfield-batch-kbar",
    ),
    pytest.param(
        "point", ("theta", "poisson", "adaptive", 120.0), {},
        _error("unknown quantity 'theta'; expected one of ['Delta', 'delta', 'gamma']"),
        id="unknown-quantity",
    ),
    pytest.param(
        "batch", ("delta", "bimodal", "adaptive", [120.0]), {},
        _error("unknown load 'bimodal'; expected one of ['algebraic', 'exponential', 'poisson']"),
        id="unknown-load",
    ),
    pytest.param(
        "point", ("delta", "poisson", "elastic", 120.0), {},
        _error("unknown utility 'elastic'; expected one of ['adaptive', 'rigid']"),
        id="unknown-utility",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 120.0), {"engine": "warp"},
        _error("unknown engine 'warp'; expected one of ['meanfield']"),
        id="unknown-engine",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", []), {},
        _error("empty query grid"),
        id="empty-grid",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", -5.0), {},
        _error("query point must be finite and > 0"),
        id="bad-point",
    ),
    pytest.param(
        "point", ("delta", "poisson", "adaptive", 120.0), {"kbar": -1.0},
        _error("kbar must be finite and > 0"),
        id="bad-kbar-point",
    ),
    pytest.param(
        "batch", ("gamma", "poisson", "adaptive", [0.01]), {"kbar": float("inf")},
        _error("kbar must be finite and > 0"),
        id="bad-kbar-batch",
    ),
    pytest.param(
        "batch", ("delta", "poisson", "adaptive", [120.0]), {"engine": "meanfield", "kbar": NAN},
        _error("kbar must be finite and > 0"),
        id="bad-kbar-meanfield",
    ),
    pytest.param(
        "point", ("gamma", "poisson", "adaptive", 0.05), {"engine": "meanfield"},
        _error("engine=meanfield serves only quantity 'delta', not 'gamma'"),
        id="meanfield-non-delta",
    ),
]


def _same(got, want) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_same(got[key], want[key]) for key in want)
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float):
        if math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-7, abs=1e-12)
    return type(got) is type(want) and got == want


class TestPinnedResponses:
    @pytest.mark.parametrize("method, args, kwargs, expected", PINNED)
    def test_response_as_parsed_json(self, service, method, args, kwargs, expected):
        try:
            reply = getattr(service, method)(*args, **kwargs)
        except QueryError as exc:
            reply = {"error": str(exc)}
        parsed = json.loads(json.dumps(reply))
        assert _same(parsed, expected), (parsed, expected)
        if "error" not in reply:
            # a second ask, answered through the cache, reads the same
            again = json.loads(json.dumps(getattr(service, method)(*args, **kwargs)))
            assert _same(again, expected), (again, expected)
