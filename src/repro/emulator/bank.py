"""Surface banks: fitting, lookup and on-disk persistence.

A :class:`SurfaceBank` holds every certified surface for one
:class:`~repro.experiments.params.PaperConfig` — the unit the service
loads at startup and the ``EM*`` verify invariants re-check.  Fitting
the default bank costs a few seconds (it runs the exact batch solvers
at every Chebyshev node and dense certification sample), so banks are
process-memoised per config and serialisable to JSON
(``repro.emulator/v1``) for ``repro emulate fit --out``.

The module-level ``exact_*_series`` functions are the *fallback
targets*: when the service receives a query a surface refuses
(out-of-domain, or a quantity/load pair that never certified), it
evaluates one of these through the PR-2 content-addressed result
cache, addressed by ``dataclasses.replace(config, capacities=...)`` so
repeat misses on the same grid are disk hits.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import CertificationError, OutOfDomainError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.ioutils import atomic_write_text
from repro.models.variable_load import VariableLoadModel
from repro.models.welfare import WelfareModel
from repro.runner.cache import config_digest
from repro.emulator.surfaces import (
    ChebyshevSurface,
    default_budget,
    default_degree,
    default_samples,
    fit_surface,
)

SCHEMA = "repro.emulator/v1"

#: The quantities the bank fits, in catalogue order.
QUANTITIES: Tuple[str, ...] = ("delta", "Delta", "gamma")

#: Load families every bank covers (the paper's three).
LOADS: Tuple[str, ...] = ("poisson", "exponential", "algebraic")

#: Only the adaptive utility is fitted: under the rigid utility
#: ``delta``/``Delta`` are step functions of capacity (jumps at
#: multiples of ``b_hat``) that no polynomial basis can certify; the
#: service answers rigid queries through the exact fallback instead.
FITTED_UTILITY = "adaptive"

#: Fit domains.  ``delta``/``Delta`` cover the capacity range where
#: the gap is numerically alive (beyond ~4x k_bar both vanish below
#: the solvers' own noise floor and the exact path is instant anyway);
#: ``Delta`` starts higher because near C = 20 the best-effort curve
#: is so flat that the gap inversion amplifies kink noise beyond any
#: certifiable budget.  ``gamma`` spans the paper's full price axis.
DOMAINS: Dict[str, Tuple[float, float]] = {
    "delta": (20.0, 400.0),
    "Delta": (60.0, 400.0),
    "gamma": (1e-3, 0.3),
}

#: ``gamma(p)`` varies on a log price axis (the paper plots it that
#: way); fitting in log p keeps the node density where the curve bends.
LOG_X = {"delta": False, "Delta": False, "gamma": True}


# ----------------------------------------------------------------------
# exact evaluators (also the service's cache-addressed fallback targets)
# ----------------------------------------------------------------------


@lru_cache(maxsize=64)
def _variable_model(config: PaperConfig, load: str, utility: str) -> VariableLoadModel:
    return VariableLoadModel(config.load(load), config.utility(utility))


@lru_cache(maxsize=64)
def _welfare_model(config: PaperConfig, load: str, utility: str) -> WelfareModel:
    return WelfareModel(_variable_model(config, load, utility))


def exact_values(
    quantity: str,
    config: PaperConfig,
    load: str,
    utility: str,
    xs,
) -> np.ndarray:
    """The exact engine's answer for any quantity over any grid."""
    arr = np.asarray(xs, dtype=float).ravel()
    if quantity == "delta":
        return _variable_model(config, load, utility).performance_gap_batch(arr)
    if quantity == "Delta":
        return _variable_model(config, load, utility).bandwidth_gap_batch(arr)
    if quantity == "gamma":
        return _welfare_model(config, load, utility).equalizing_ratio_batch(arr)
    raise ValueError(
        f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
    )


def exact_delta_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``delta`` over ``config.capacities`` (cache fallback target)."""
    xs = np.asarray(config.capacities, dtype=float)
    return {"x": xs, "value": exact_values("delta", config, load, utility, xs)}


def exact_Delta_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``Delta`` over ``config.capacities`` (cache fallback target)."""
    xs = np.asarray(config.capacities, dtype=float)
    return {"x": xs, "value": exact_values("Delta", config, load, utility, xs)}


def exact_gamma_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``gamma`` over ``config.prices`` (cache fallback target)."""
    xs = np.asarray(config.prices, dtype=float)
    return {"x": xs, "value": exact_values("gamma", config, load, utility, xs)}


#: quantity -> (series target, axis attribute on PaperConfig)
SERIES_TARGETS = {
    "delta": (exact_delta_series, "capacities"),
    "Delta": (exact_Delta_series, "capacities"),
    "gamma": (exact_gamma_series, "prices"),
}


def replace_axis(config: PaperConfig, quantity: str, xs) -> PaperConfig:
    """Re-address a config at the query grid for cache lookups."""
    _, axis = SERIES_TARGETS[quantity]
    return dataclasses.replace(
        config, **{axis: tuple(float(x) for x in np.asarray(xs, dtype=float).ravel())}
    )


# ----------------------------------------------------------------------
# the bank
# ----------------------------------------------------------------------


@dataclass
class SurfaceBank:
    """Every certified surface for one configuration."""

    config_digest: str
    surfaces: Dict[str, ChebyshevSurface] = field(default_factory=dict)

    def add(self, surface: ChebyshevSurface) -> None:
        self.surfaces[surface.key] = surface

    def lookup(
        self, quantity: str, load: str, utility: str
    ) -> Optional[ChebyshevSurface]:
        """The surface for a query triple, or ``None`` (fallback)."""
        return self.surfaces.get(f"{quantity}/{load}/{utility}")

    def __len__(self) -> int:
        return len(self.surfaces)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config_digest": self.config_digest,
            "surfaces": [s.to_dict() for s in self.surfaces.values()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SurfaceBank":
        """Rebuild a saved bank; ``ValueError`` names a refused entry."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"a bank must be a JSON object, not {type(payload).__name__}"
            )
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bank schema {payload.get('schema')!r}; "
                f"expected {SCHEMA}"
            )
        digest, entries = payload.get("config_digest"), payload.get("surfaces")
        if not isinstance(digest, str):
            raise ValueError(f"config_digest must be a string, not {digest!r}")
        if not isinstance(entries, list):
            raise ValueError(
                f"surfaces must be a list, not {type(entries).__name__}"
            )
        bank = cls(config_digest=digest)
        for index, entry in enumerate(entries):
            try:
                bank.add(ChebyshevSurface.from_dict(entry))
            except ValueError as exc:
                name = (
                    "/".join(str(entry.get(k)) for k in ("quantity", "load", "utility"))
                    if isinstance(entry, dict)
                    else repr(entry)
                )
                raise ValueError(f"surface #{index} ({name}): {exc}") from None
        return bank

    def save(self, path) -> pathlib.Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "SurfaceBank":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def fit_bank(
    config: Optional[PaperConfig] = None,
    *,
    quantities: Sequence[str] = QUANTITIES,
    loads: Iterable[str] = LOADS,
) -> SurfaceBank:
    """Fit and certify the full bank for one configuration.

    Raises :class:`~repro.errors.CertificationError` if any surface
    misses its budget — a bank is all-certified or not built.
    """
    cfg = DEFAULT_CONFIG if config is None else config
    bank = SurfaceBank(config_digest=config_digest(cfg))
    for quantity in quantities:
        lo, hi = DOMAINS[quantity]
        budget = default_budget(quantity)
        for load in loads:
            with obs.span("emulator.fit", surface=f"{quantity}/{load}"):
                surface = fit_surface(
                    lambda xs, q=quantity, ld=load: exact_values(
                        q, cfg, ld, FITTED_UTILITY, xs
                    ),
                    quantity=quantity,
                    load=load,
                    utility=FITTED_UTILITY,
                    xname="price" if quantity == "gamma" else "capacity",
                    lo=lo,
                    hi=hi,
                    degree=default_degree(quantity),
                    budget=budget,
                    log_x=LOG_X[quantity],
                    samples=default_samples(quantity),
                )
            bank.add(surface)
            if obs.enabled():
                obs.emit(
                    "emulator.fit",
                    surface=surface.key,
                    degree=surface.degree,
                    certified_bound=surface.certified_bound,
                    allowance=surface.allowance,
                )
    return bank


@lru_cache(maxsize=8)
def default_bank(config: Optional[PaperConfig] = None) -> SurfaceBank:
    """Process-memoised bank for a config.

    The verify invariants and the service both call this; the fit cost
    is paid once per process per config.
    """
    return fit_bank(DEFAULT_CONFIG if config is None else config)


def check_bank(
    bank: SurfaceBank,
    config: Optional[PaperConfig] = None,
    *,
    probes: int = 41,
) -> List[dict]:
    """Re-verify every surface's bound on a fresh probe grid.

    Returns one report row per surface with the worst fresh residual in
    certified-bound units (``<= 1.0`` passes).  Used by
    ``repro emulate check`` and mirrored by the ``EM*`` invariants.
    """
    cfg = DEFAULT_CONFIG if config is None else config
    rows: List[dict] = []
    for surface in bank.surfaces.values():
        # probe offsets chosen irrationally so they avoid both the fit
        # nodes and the certification sample
        frac = (np.arange(probes) + np.sqrt(0.5)) / probes
        if surface.log_x:
            xs = surface.lo * (surface.hi / surface.lo) ** frac
        else:
            xs = surface.lo + (surface.hi - surface.lo) * frac
        exact = exact_values(
            surface.quantity, cfg, surface.load, surface.utility, xs
        )
        residual = float(
            np.max(np.abs(surface.evaluate(xs) - exact)) / surface.certified_bound
        )
        rows.append(
            {
                "surface": surface.key,
                "residual": residual,
                "certified_bound": surface.certified_bound,
                "ok": residual <= 1.0,
            }
        )
    return rows


__all__ = [
    "SCHEMA",
    "QUANTITIES",
    "LOADS",
    "FITTED_UTILITY",
    "DOMAINS",
    "SurfaceBank",
    "fit_bank",
    "default_bank",
    "check_bank",
    "exact_values",
    "exact_delta_series",
    "exact_Delta_series",
    "exact_gamma_series",
    "SERIES_TARGETS",
    "replace_axis",
    "CertificationError",
    "OutOfDomainError",
]
