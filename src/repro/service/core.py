"""The service core: certified surfaces in front, exact solvers behind.

:class:`EmulatorService` is the synchronous, thread-safe query engine
the HTTP layer (:mod:`repro.service.http`) wraps.  Every query walks
the same ladder:

1. **Engine hint** — ``engine="meanfield"`` answers ``delta`` from the
   fluid-diffusion engine, and nothing else.
2. **Surface** — at the bank's own mean load (no ``kbar``), a point
   inside the fitted domain of a certified surface is answered from
   the Chebyshev expansion (microseconds, error ≤ the surface's
   certified bound).
3. **Exact** — every other point (rigid utility, out of domain, any
   ``kbar`` what-if) is evaluated by the exact solver *through* the
   content-addressed result cache, addressed by the query grid
   (``dataclasses.replace(config, capacities=...)``), so repeated
   misses on the same grid are disk hits.

Per-triple locks serialise concurrent cold misses (a thundering herd
of identical queries computes the solver answer once); distinct
triples fall back concurrently.  Everything is metered through
:mod:`repro.obs` when enabled: ``service.*`` counters, the cache's own
hit/miss counters, and a journal event per fallback.
"""

from __future__ import annotations

import dataclasses
import math
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
from repro.emulator.surfaces import ChebyshevSurface
from repro.errors import ReproError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.experiments.registry import Experiment
from repro.runner.cache import ResultCache

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
        through :meth:`batch`.
        """
        _validate_triple(quantity, load, utility)
        x = float(x)
        if not (math.isfinite(x) and x > 0.0):
            raise QueryError("query point must be finite and > 0")
        surface = self._surface(quantity, load, utility, kbar, engine)
        if surface is not None and surface.lo <= x <= surface.hi:
            value = surface.eval_scalar(x)
            if quantity != "gamma" and value < 0.0:
                value = 0.0
            if obs.enabled():
                obs.counter("service.points.surface").inc()
            return _reply(
                quantity, load, utility, x, value, "surface", surface.certified_bound
            )
        result = self.batch(quantity, load, utility, [x], kbar=kbar, engine=engine)
        return _reply(
            quantity,
            load,
            utility,
            x,
            result["values"][0],
            result["source"],
            result["certified_bound"],
        )

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
        utility, or any ``kbar`` what-if) go to the exact batch solver
        through the result cache.  The response says how many points
        took each path and carries the certified bound whenever *any*
        point came from a surface (``None`` means all-exact).  An
        explicit ``engine="meanfield"`` hint answers from the
        fluid-diffusion engine instead (``delta`` only; refusals
        propagate).
        """
        _validate_triple(quantity, load, utility)
        arr = _validate_grid(xs)
        if engine is not None:
            if engine not in ENGINE_HINTS:
                raise QueryError(
                    f"unknown engine {engine!r}; expected one of "
                    f"{sorted(ENGINE_HINTS)}"
                )
            if quantity != "delta":
                raise QueryError(
                    f"engine=meanfield serves only quantity 'delta', "
                    f"not {quantity!r}"
                )
        if kbar is not None:
            kbar = float(kbar)
            if not (math.isfinite(kbar) and kbar > 0.0):
                raise QueryError("kbar must be finite and > 0")
        if engine is not None:
            values = self._meanfield_values(load, utility, arr, kbar)
            return _reply(
                quantity,
                load,
                utility,
                arr.tolist(),
                values.tolist(),
                "meanfield",
                None,
                {"surface": 0, "exact": 0, "meanfield": int(arr.size)},
                kbar,
            )
        surface = self._surface(quantity, load, utility, kbar, engine)
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
        n_surface = int(arr.size) - n_exact
        if n_exact:
            config = (
                self.config if kbar is None else dataclasses.replace(self.config, kbar=kbar)
            )
            values[~inside] = self._exact_via_cache(
                quantity, load, utility, arr[~inside], config
            )
        if kbar is None and obs.enabled():
            obs.counter("service.points.surface").inc(n_surface)
        if n_exact == 0:
            source = "surface"
        elif n_surface == 0:
            source = "exact"
        else:
            source = "mixed"
        return _reply(
            quantity,
            load,
            utility,
            arr.tolist(),
            values.tolist(),
            source,
            surface.certified_bound if n_surface else None,
            {"surface": n_surface, "exact": n_exact},
            kbar,
        )

    def covers(
        self,
        quantity: str,
        load: str,
        utility: str,
        xs: Sequence[float],
        *,
        kbar: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> bool:
        """Whether a surface alone answers this query, no solver run.

        True when the surface rung covers every point, so the query is
        answered in microseconds; the HTTP layer answers such queries
        on its event loop and sends every other one to its executor.
        """
        surface = self._surface(quantity, load, utility, kbar, engine)
        return surface is not None and all(surface.lo <= x <= surface.hi for x in xs)

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
            "surfaces": [strip(s.to_dict()) for s in self.bank.surfaces.values()],
            "cache": self.cache is not None,
        }

    # ------------------------------------------------------------------
    # the ladder's rungs
    # ------------------------------------------------------------------

    def _surface(
        self,
        quantity: str,
        load: str,
        utility: str,
        kbar: Optional[float],
        engine: Optional[str],
    ) -> Optional[ChebyshevSurface]:
        """The surface that may answer a query, or ``None``.

        Surfaces are fitted at the bank's own mean load, so a ``kbar``
        what-if or an ``engine`` hint never reaches one.
        """
        if kbar is not None or engine is not None:
            return None
        return self.bank.lookup(quantity, load, utility)

    def _meanfield_values(
        self, load: str, utility: str, arr: np.ndarray, kbar: Optional[float]
    ) -> np.ndarray:
        """``delta`` over a grid from the fluid-diffusion engine.

        Any configuration outside the engine's validity envelope is
        refused with :class:`OutOfDomainError` — the engine never
        extrapolates, and the HTTP layer maps the refusal to a 400.
        """
        population = kbar if kbar is not None else self.config.kbar
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
        return values

    def _meanfield_sim(self, load: str, population: float):
        """One memoised simulator per ``(load, population)``.

        The fluid solve is capacity-independent, so a single cached
        equilibrium serves every query grid at this pair; the lock
        serialises concurrent first solves the same way the fallback
        locks serialise cold cache misses.
        """
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
        config: PaperConfig,
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
        cfg = replace_axis(config, quantity, xs)
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
        with self._lock_for(f"{exp.exp_id}/{cfg.kbar}"):
            if self.cache is None:
                series = target(cfg, load, utility)
            else:
                series, _ = self.cache.read_through(
                    exp, cfg, lambda: target(cfg, load, utility)
                )
        return np.asarray(series["value"], dtype=float)


def _reply(
    quantity: str,
    load: str,
    utility: str,
    x,
    value,
    source: str,
    certified_bound: Optional[float],
    sources: Optional[dict] = None,
    kbar: Optional[float] = None,
) -> dict:
    """The shape of every answer the service gives.

    A point answer carries ``value``; a batch answer carries ``values``
    and its per-path ``sources`` count, plus ``kbar`` for a what-if.
    """
    reply = {
        "quantity": quantity,
        "load": load,
        "utility": utility,
        "x": x,
        "value" if sources is None else "values": value,
        "source": source,
        "certified_bound": certified_bound,
    }
    if sources is not None:
        reply["sources"] = sources
        if kbar is not None:
            reply["kbar"] = kbar
    return reply


__all__ = ["ENGINE_HINTS", "EmulatorService", "QueryError", "UTILITIES"]
