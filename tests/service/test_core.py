"""The service query engine: surface fast path, cache fallback, locks.

The fixture bank fits only ``delta``/``gamma`` over the poisson load so
the module stays fast; every other triple exercises the exact-fallback
ladder, which is precisely what these tests are about.
"""

from __future__ import annotations

import dataclasses
import json
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
