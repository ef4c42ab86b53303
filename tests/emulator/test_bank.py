"""The surface bank against the real exact solvers.

A reduced bank (one quantity x load pair plus gamma) keeps the fit
under a second; the full nine-surface bank is exercised by the EM
invariants and ``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.emulator import (
    DOMAINS,
    SurfaceBank,
    check_bank,
    exact_values,
    fit_bank,
    replace_axis,
)
from repro.experiments.params import DEFAULT_CONFIG


@pytest.fixture(scope="module")
def small_bank():
    return fit_bank(quantities=("delta", "gamma"), loads=("poisson",))


class TestFitBank:
    def test_one_surface_per_quantity_load_pair(self, small_bank):
        assert len(small_bank) == 2
        assert small_bank.lookup("delta", "poisson", "adaptive") is not None
        assert small_bank.lookup("gamma", "poisson", "adaptive") is not None

    def test_unfitted_triples_return_none(self, small_bank):
        assert small_bank.lookup("delta", "exponential", "adaptive") is None
        assert small_bank.lookup("delta", "poisson", "rigid") is None

    def test_every_surface_is_certified(self, small_bank):
        for surf in small_bank.surfaces.values():
            assert surf.certified_bound <= surf.allowance
            assert surf.observed_residual <= surf.certified_bound

    def test_surfaces_agree_with_the_exact_engines(self, small_bank):
        surf = small_bank.lookup("delta", "poisson", "adaptive")
        lo, hi = DOMAINS["delta"]
        xs = lo + (hi - lo) * (np.arange(17) + np.sqrt(2.0) % 1.0) / 17
        exact = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", xs)
        err = np.abs(surf.evaluate(xs) - exact)
        assert float(np.max(err)) <= surf.certified_bound

    def test_exact_scalar_matches_exact_values(self):
        xs = np.array([80.0, 150.0])
        batch = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", xs)
        for x, ref in zip(xs, batch):
            got = exact_values("delta", DEFAULT_CONFIG, "poisson", "adaptive", [x])[0]
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestGammaSurfacesDenseProbe:
    """Each gamma surface against the exact gamma at 2000 fresh prices.

    The exact gamma has small kinks where the optimal admission
    threshold switches (near p = 0.3 on the heavy-tailed loads); the
    certification sample must be dense enough that no probe between its
    points exceeds the certified bound.
    """

    PROBES = 2000

    @pytest.mark.parametrize("load", ["poisson", "exponential", "algebraic"])
    def test_every_probe_within_the_certified_bound(self, load):
        surf = fit_bank(quantities=("gamma",), loads=(load,)).lookup(
            "gamma", load, "adaptive"
        )
        # log-spaced, offset irrationally from the fit nodes and the
        # (log-spaced, endpoint-inclusive) certification sample
        frac = (np.arange(self.PROBES) + np.sqrt(0.5)) / self.PROBES
        xs = surf.lo * (surf.hi / surf.lo) ** frac
        exact = exact_values("gamma", DEFAULT_CONFIG, load, "adaptive", xs)
        residual = np.abs(surf.evaluate(xs) - exact)
        worst = int(np.argmax(residual))
        assert residual[worst] <= surf.certified_bound, (
            f"p={xs[worst]}: residual {residual[worst]:.3e} > "
            f"bound {surf.certified_bound:.3e}"
        )


class TestCheckBank:
    def test_fresh_probe_report(self, small_bank):
        rows = check_bank(small_bank, probes=13)
        assert len(rows) == len(small_bank)
        for row in rows:
            assert set(row) >= {"surface", "residual", "certified_bound", "ok"}
            assert row["ok"], row
            assert 0.0 <= row["residual"] <= 1.0


class TestPersistence:
    def test_save_load_round_trip(self, small_bank, tmp_path):
        path = small_bank.save(tmp_path / "bank.json")
        clone = SurfaceBank.load(path)
        assert clone.config_digest == small_bank.config_digest
        assert len(clone) == len(small_bank)
        surf, orig = (
            b.lookup("delta", "poisson", "adaptive") for b in (clone, small_bank)
        )
        assert surf == orig
        assert surf.eval_scalar(123.0) == orig.eval_scalar(123.0)

    def test_schema_tag(self, small_bank, tmp_path):
        path = small_bank.save(tmp_path / "bank.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.emulator/v1"
        with pytest.raises(ValueError, match="schema"):
            SurfaceBank.from_dict({**payload, "schema": "repro.emulator/v999"})


class TestReplaceAxis:
    def test_delta_replaces_capacities(self):
        cfg = replace_axis(DEFAULT_CONFIG, "delta", np.array([42.0, 99.0]))
        assert cfg.capacities == (42.0, 99.0)
        assert cfg.prices == DEFAULT_CONFIG.prices

    def test_gamma_replaces_prices(self):
        cfg = replace_axis(DEFAULT_CONFIG, "gamma", np.array([0.01, 0.1]))
        assert cfg.prices == (0.01, 0.1)
        assert cfg.capacities == DEFAULT_CONFIG.capacities
