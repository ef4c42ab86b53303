"""The service core: certified surfaces in front, exact solvers behind.

:class:`EmulatorService` is the synchronous, thread-safe query engine
the HTTP layer (:mod:`repro.service.http`) wraps.  Every query walks
the same ladder:

1. **Surface** — if a certified surface covers the query triple and
   the point is inside its fitted domain, answer from the Chebyshev
   expansion (microseconds, error ≤ the surface's certified bound).
2. **Cache** — otherwise evaluate the exact solver *through* the PR-2
   content-addressed result cache, addressed by the query grid
   (``dataclasses.replace(config, capacities=...)``), so repeated
   misses on the same grid are disk hits.
3. **Exact** — a cold miss runs the batch solver and stores the
   result for the next identical query.

Per-triple locks serialise concurrent cold misses (a thundering herd
of identical queries computes the solver answer once); distinct
triples fall back concurrently.  Everything is metered through
:mod:`repro.obs` when enabled: ``service.*`` counters, the cache's own
hit/miss counters, and a journal event per fallback.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.caching import BoundedCache
from repro.emulator.bank import (
    LOADS,
    QUANTITIES,
    SERIES_TARGETS,
    SurfaceBank,
    default_bank,
    replace_axis,
)
from repro.errors import ReproError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.experiments.registry import Experiment
from repro.runner.cache import ResultCache, decode_result

#: Utilities the service accepts (rigid is always exact-path).
UTILITIES: Tuple[str, ...] = ("rigid", "adaptive")

#: Engines a query may explicitly request instead of the default
#: surface/exact ladder.  The mean-field engine answers ``delta``
#: queries from the fluid-diffusion fixed point in O(1) per capacity —
#: and *refuses* (HTTP 400) outside its validity envelope rather than
#: extrapolating.
ENGINE_HINTS: Tuple[str, ...] = ("meanfield",)

#: Entries the per-``kbar`` lock and mean-field tables keep.  Both are
#: keyed by a client-chosen value, so both are LRU-bounded.
TABLE_BOUND = 256


class QueryError(ReproError):
    """A malformed query (unknown quantity/load/utility, bad grid).

    The HTTP layer maps this to a 400 response; everything else
    non-deliberate becomes a 500.
    """


def _validate_triple(quantity: str, load: str, utility: str) -> None:
    if quantity not in QUANTITIES:
        raise QueryError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    if load not in LOADS:
        raise QueryError(
            f"unknown load {load!r}; expected one of {sorted(LOADS)}"
        )
    if utility not in UTILITIES:
        raise QueryError(
            f"unknown utility {utility!r}; expected one of {sorted(UTILITIES)}"
        )


def _validate_grid(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise QueryError("empty query grid")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise QueryError("query points must be finite and > 0")
    return arr


class EmulatorService:
    """Thread-safe query engine over one surface bank.

    Parameters
    ----------
    config:
        The configuration surfaces were fitted for (defaults to the
        paper's).  Fallback queries evaluate exactly under this config
        (with the axis, and optionally ``kbar``, replaced).
    bank:
        A pre-fitted :class:`SurfaceBank`; fitted on first use when
        omitted.
    cache:
        A :class:`~repro.runner.cache.ResultCache` the fallback path
        reads/writes through, or ``None`` to always recompute.
    """

    def __init__(
        self,
        config: Optional[PaperConfig] = None,
        *,
        bank: Optional[SurfaceBank] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.config = DEFAULT_CONFIG if config is None else config
        self.bank = bank if bank is not None else default_bank(self.config)
        self.cache = cache
        # both tables are read and written only under _locks_guard
        self._locks = BoundedCache(TABLE_BOUND)
        self._locks_guard = threading.Lock()
        self._meanfield_sims = BoundedCache(TABLE_BOUND)

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------

    def point(
        self,
        quantity: str,
        load: str,
        utility: str,
        x: float,
        *,
        kbar: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> dict:
        """One point — the latency-critical path.

        Inside a fitted domain this is a pure-Python Clenshaw
        evaluation (no numpy, no locks); everything else routes
        through :meth:`batch`.  An explicit ``engine`` hint bypasses
        the surface ladder entirely.
        """
        _validate_triple(quantity, load, utility)
        x = float(x)
        if not (np.isfinite(x) and x > 0.0):
            raise QueryError("query point must be finite and > 0")
        if kbar is None and engine is None:
            surface = self.bank.lookup(quantity, load, utility)
            if surface is not None and surface.lo <= x <= surface.hi:
                value = surface.eval_scalar(x)
                if quantity != "gamma" and value < 0.0:
                    value = 0.0
                if obs.enabled():
                    obs.counter("service.points.surface").inc()
                return {
                    "quantity": quantity,
                    "load": load,
                    "utility": utility,
                    "x": x,
                    "value": value,
                    "source": "surface",
                    "certified_bound": surface.certified_bound,
                }
        result = self.batch(quantity, load, utility, [x], kbar=kbar, engine=engine)
        return {
            "quantity": quantity,
            "load": load,
            "utility": utility,
            "x": x,
            "value": result["values"][0],
            "source": result["source"],
            "certified_bound": result["certified_bound"],
        }

    def batch(
        self,
        quantity: str,
        load: str,
        utility: str,
        xs: Sequence[float],
        *,
        kbar: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> dict:
        """A grid query: surface where certified, exact elsewhere.

        In-domain points are answered from the surface; out-of-domain
        points (and whole triples no surface certifies, e.g. the rigid
        utility) fall back to the exact batch solver through the
        result cache.  The response says how many points took each
        path and carries the certified bound whenever *any* point came
        from a surface (``None`` means all-exact).  An explicit
        ``engine="meanfield"`` hint answers from the fluid-diffusion
        engine instead (``delta`` only; refusals propagate).
        """
        _validate_triple(quantity, load, utility)
        arr = _validate_grid(xs)
        if engine is not None:
            if engine not in ENGINE_HINTS:
                raise QueryError(
                    f"unknown engine {engine!r}; expected one of "
                    f"{sorted(ENGINE_HINTS)}"
                )
            return self._meanfield_batch(quantity, load, utility, arr, kbar)
        if kbar is not None:
            return self._batch_kbar(quantity, load, utility, arr, float(kbar))
        surface = self.bank.lookup(quantity, load, utility)
        values = np.empty_like(arr)
        if surface is None:
            inside = np.zeros(arr.shape, dtype=bool)
        else:
            inside = surface.contains(arr)
            if np.any(inside):
                fitted = surface.evaluate(arr[inside])
                if quantity != "gamma":
                    fitted = np.maximum(0.0, fitted)
                values[inside] = fitted
        n_exact = int(np.count_nonzero(~inside))
        if n_exact:
            values[~inside] = self._exact_via_cache(
                quantity, load, utility, arr[~inside]
            )
        if obs.enabled():
            obs.counter("service.points.surface").inc(arr.size - n_exact)
        return {
            "quantity": quantity,
            "load": load,
            "utility": utility,
            "x": arr.tolist(),
            "values": values.tolist(),
            "source": self._source_label(arr.size - n_exact, n_exact),
            "sources": {"surface": int(arr.size - n_exact), "exact": n_exact},
            "certified_bound": surface.certified_bound
            if surface is not None and n_exact < arr.size
            else None,
        }

    def describe(self) -> dict:
        """Bank metadata for ``GET /v1/surfaces`` (no coefficients)."""
        def strip(payload: dict) -> dict:
            return {k: v for k, v in payload.items() if k != "coefficients"}

        return {
            "config_digest": self.bank.config_digest,
            "quantities": list(QUANTITIES),
            "loads": list(LOADS),
            "utilities": list(UTILITIES),
            "engines": list(ENGINE_HINTS),
            "surfaces": [strip(s.to_dict()) for s in self.bank.all_surfaces()],
            "cache": self.cache is not None,
        }

    # ------------------------------------------------------------------
    # fallback ladder
    # ------------------------------------------------------------------

    @staticmethod
    def _source_label(n_surface: int, n_exact: int) -> str:
        if n_exact == 0:
            return "surface"
        if n_surface == 0:
            return "exact"
        return "mixed"

    def _batch_kbar(
        self, quantity: str, load: str, utility: str, arr: np.ndarray, kbar: float
    ) -> dict:
        """A what-if query at a non-default mean load.

        Served from the 2-D ``delta(C, kbar)`` surface when one is in
        the bank and covers the query; otherwise exact under a
        ``kbar``-replaced config (cache-addressed like any fallback).
        """
        import dataclasses

        if not (np.isfinite(kbar) and kbar > 0.0):
            raise QueryError("kbar must be finite and > 0")
        surface2d = self.bank.lookup_2d(quantity, load, utility)
        if surface2d is not None and surface2d.contains(arr, kbar):
            values = surface2d.evaluate(arr, kbar)
            if quantity != "gamma":
                values = np.maximum(0.0, values)
            if obs.enabled():
                obs.counter("service.points.surface").inc(arr.size)
            return {
                "quantity": quantity,
                "load": load,
                "utility": utility,
                "x": arr.tolist(),
                "kbar": kbar,
                "values": values.tolist(),
                "source": "surface",
                "sources": {"surface": int(arr.size), "exact": 0},
                "certified_bound": surface2d.certified_bound,
            }
        config = dataclasses.replace(self.config, kbar=kbar)
        values = self._exact_via_cache(quantity, load, utility, arr, config=config)
        return {
            "quantity": quantity,
            "load": load,
            "utility": utility,
            "x": arr.tolist(),
            "kbar": kbar,
            "values": values.tolist(),
            "source": "exact",
            "sources": {"surface": 0, "exact": int(arr.size)},
            "certified_bound": None,
        }

    def _meanfield_batch(
        self,
        quantity: str,
        load: str,
        utility: str,
        arr: np.ndarray,
        kbar: Optional[float],
    ) -> dict:
        """Answer a batch through the fluid-diffusion engine.

        Explicit opt-in only.  The quantity is restricted to ``delta``
        (the paired gap is what the engine computes to O(1/N)); every
        other quantity, and any configuration outside the validity
        envelope, is refused — the engine never extrapolates, and the
        HTTP layer maps the :class:`OutOfDomainError` to a 400.
        """
        if quantity != "delta":
            raise QueryError(
                f"engine=meanfield serves only quantity 'delta', "
                f"not {quantity!r}"
            )
        if kbar is not None and not (np.isfinite(kbar) and kbar > 0.0):
            raise QueryError("kbar must be finite and > 0")
        population = float(kbar) if kbar is not None else self.config.kbar
        sim = self._meanfield_sim(load, population)
        values = sim.gap_batch(self.config.utility(utility), arr)
        if obs.enabled():
            obs.counter("service.points.meanfield").inc(arr.size)
        obs.emit(
            "service.meanfield",
            load=load,
            utility=utility,
            population=population,
            points=int(arr.size),
        )
        response = {
            "quantity": quantity,
            "load": load,
            "utility": utility,
            "x": arr.tolist(),
            "values": values.tolist(),
            "source": "meanfield",
            "sources": {"surface": 0, "exact": 0, "meanfield": int(arr.size)},
            "certified_bound": None,
        }
        if kbar is not None:
            response["kbar"] = population
        return response

    def _meanfield_sim(self, load: str, population: float):
        """One memoised simulator per ``(load, population)``.

        The fluid solve is capacity-independent, so a single cached
        equilibrium serves every query grid at this pair; the lock
        serialises concurrent first solves the same way the fallback
        locks serialise cold cache misses.
        """
        import dataclasses

        from repro.meanfield import MeanFieldSimulator
        from repro.simulation import BirthDeathProcess, Link

        # the exact float: kbar what-ifs equal to six digits are distinct
        key = f"{load}/{population!r}"
        with self._lock_for(f"meanfield/{key}"):
            with self._locks_guard:
                sim = self._meanfield_sims.get(key)
            if sim is None:
                config = (
                    dataclasses.replace(self.config, kbar=population)
                    if population != self.config.kbar
                    else self.config
                )
                sim = MeanFieldSimulator(
                    BirthDeathProcess(config.load(load)), Link(population)
                )
                with self._locks_guard:
                    self._meanfield_sims.put(key, sim)
        return sim

    def _lock_for(self, key: str) -> threading.Lock:
        """The lock serialising cold work on ``key``.

        An evicted lock is only re-created: a thread still holding it
        finishes its work, at worst alongside one new holder.
        """
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._locks.put(key, lock)
            return lock

    def _exact_via_cache(
        self,
        quantity: str,
        load: str,
        utility: str,
        xs: np.ndarray,
        *,
        config: Optional[PaperConfig] = None,
    ) -> np.ndarray:
        """Exact values through the content-addressed cache.

        The query is wrapped as a synthetic :class:`Experiment` whose
        digest target is the module-level ``exact_*_series`` function,
        and the config's axis is replaced by the query grid — so the
        cache address covers code version, config *and* the exact
        points asked for.
        """
        target, _ = SERIES_TARGETS[quantity]
        exp = Experiment(
            exp_id=f"SVC.{quantity}.{load}.{utility}",
            description=f"service fallback: exact {quantity} ({load}/{utility})",
            run=lambda cfg: target(cfg, load, utility),
            target=target,
        )
        cfg = replace_axis(
            self.config if config is None else config, quantity, xs
        )
        if obs.enabled():
            obs.counter("service.fallback.calls").inc()
            obs.counter("service.points.exact").inc(xs.size)
        obs.emit(
            "service.fallback",
            quantity=quantity,
            load=load,
            utility=utility,
            points=int(xs.size),
        )
        lock = self._lock_for(f"{exp.exp_id}/{cfg.kbar}")
        with lock:
            if self.cache is not None:
                entry = self.cache.load(exp, cfg)
                if entry is not None:
                    series = decode_result(entry["result_kind"], entry["result"])
                    return np.asarray(series["value"], dtype=float)
            series = target(cfg, load, utility)
            if self.cache is not None:
                self.cache.store(exp, cfg, series)
        return np.asarray(series["value"], dtype=float)


__all__ = ["ENGINE_HINTS", "EmulatorService", "QueryError", "UTILITIES"]
