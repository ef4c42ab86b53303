"""Regenerate ``figures.json`` through the scalar entry points.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py [SECTION ...]

With no arguments every section is rewritten.  Named sections are
rewritten (or added) and every other section is kept byte-identical,
so adding a pin does not re-pin the rest; an unknown name exits 2.

The golden values pin the paper-parameter figures (k_bar = 100,
kappa = 0.62086, z = 3) at ~10 canonical grid points each:

- ``delta``  — performance gap δ(C) = R(C) − B(C), Figures 2–4;
- ``Delta``  — bandwidth gap Δ(C) with B(C + Δ) = R(C), Figures 2–4;
- ``gamma``  — discrete welfare price-ratio curve γ(p) per figure
  (CI re-derives these with ``welfare_reference.py``, which shares no
  code with the welfare kernel, and fails past 1e-9 relative);
- ``algebraic_shared_tables`` — B(C), δ(C) and Δ(C) for the algebraic
  load at capacities straddling the shared zeta-table series levels,
  pinning the memoised polynomial-tail evaluation path end to end;
- ``continuum_rigid_exp`` — closed-form rigid/exponential γ(p) overlay;
- ``sampling_T4`` — Section 5.1 worst-of-S curves behind checkpoints
  T4.1–T4.5 (exp/adaptive, S from the config) plus the closed-form
  ``(S(z-1))^{1/(z-2)}`` ratios;
- ``retrying_T5`` — Section 5.2 retry curves behind checkpoints
  T5.1–T5.6 (alg/adaptive, alpha from the config; capacities start at
  1.3 k̄ because the retry balance needs C ≳ 1.2 k̄) plus the
  closed-form ``((z-1)/alpha)^{1/(z-2)}`` ratios (CI re-derives
  ``reservation`` and ``delta`` with ``retry_reference.py``, which
  shares no model, load or solver code, and fails past 1e-7);
- ``retrying_gamma`` — the Section 5.2 welfare reversal behind
  checkpoint T5.7: γ(p) of the retrying model on its capacity table
  (``repro.experiments.figures.retrying_gamma``), rising to an
  interior peak and falling toward small p;
- ``poisson_large_kbar`` — B, R, δ and Δ for a Poisson load at
  k̄ = 1e7 and C/k̄ ∈ {0.5, 0.95, 1, 2}, rigid and adaptive: computed by
  ``census_reference.py``'s dense window sums (no planner, no mass
  window), which CI re-runs against these pins at 1e-9 relative;
- ``meanfield`` — the fluid-diffusion engine's B̂(C)/R̂(C)/gap over the
  canonical capacities (Poisson census, Gauss–Hermite closure): the
  quadrature is deterministic, so the pins hold the whole fluid solve +
  diffusion functional chain bit-stable;
- ``traces`` — the seeded replay summaries of
  ``repro.traces.summary.DEFAULT_REPLAY_SPECS`` (rtol 1e-7).

Model values come through the scalar entry points, which are one-element
views of the batch kernels; the golden test holds those views and the
grid calls to the same numbers, so a regression in a kernel (or a
scalar path forked away from it) fails CI.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Dict

import numpy as np

import census_reference
from repro.continuum import (
    RigidExponentialContinuum,
    retrying_rigid_ratio,
    sampling_rigid_ratio,
)
from repro.experiments.figures import retrying_gamma
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.models import (
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
)

OUT = pathlib.Path(__file__).parent / "figures.json"

#: Canonical capacity grid (absolute units, k_bar = 100): spans the
#: under- to over-provisioned range where every figure quantity is
#: well-conditioned.
CAPACITIES = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 160.0]

#: Price grid for the welfare ratio curves.
PRICES = list(np.geomspace(1e-3, 0.2, 10))

#: Price grid for the continuum closed-form overlay.
CONTINUUM_PRICES = list(np.geomspace(1e-5, 0.2, 10))

FIGURES = {"figure2": "poisson", "figure3": "exponential", "figure4": "algebraic"}

#: Capacity grid for the retry curves: the retry balance is only
#: defined for C comfortably above the intrinsic mean (C >= ~1.2 k_bar).
RETRY_CAPACITIES = [130.0, 150.0, 200.0, 250.0, 300.0, 400.0]

#: Capacity grid for the shared-table pins (heavy-tailed algebraic
#: load through the memoised zeta-table / polynomial-tail path):
#: chosen to straddle the planner's series levels — TAIL at n = 512
#: for small capacities, n = 1024 past ~200 — including capacities
#: outside the figure grids above.
SHARED_TABLE_CAPACITIES = [20.0, 60.0, 100.0, 160.0, 220.0]


def _figure(load_name: str) -> Callable[[PaperConfig], dict]:
    def build(cfg: PaperConfig) -> dict:
        model = VariableLoadModel(cfg.load(load_name), cfg.utility("adaptive"))
        curve = WelfareModel(model).ratio_curve(PRICES)
        return {
            "load": load_name,
            "capacity": CAPACITIES,
            "delta": [model.performance_gap(c) for c in CAPACITIES],
            "Delta": [model.bandwidth_gap(c) for c in CAPACITIES],
            "price": PRICES,
            "gamma": [None if not np.isfinite(g) else float(g) for g in curve["gamma"]],
        }

    return build


def _algebraic_shared_tables(cfg: PaperConfig) -> dict:
    shared = VariableLoadModel(cfg.load("algebraic"), cfg.utility("adaptive"))
    return {
        "load": "algebraic",
        "capacity": SHARED_TABLE_CAPACITIES,
        "best_effort": [shared.best_effort(c) for c in SHARED_TABLE_CAPACITIES],
        "delta": [shared.performance_gap(c) for c in SHARED_TABLE_CAPACITIES],
        "Delta": [shared.bandwidth_gap(c) for c in SHARED_TABLE_CAPACITIES],
    }


def _continuum_rigid_exp(cfg: PaperConfig) -> dict:
    cont = RigidExponentialContinuum(1.0)
    return {
        "price": CONTINUUM_PRICES,
        "gamma": [cont.equalizing_ratio(p) for p in CONTINUUM_PRICES],
    }


def _sampling_T4(cfg: PaperConfig) -> dict:
    sampled = SamplingModel(
        cfg.load("exponential"), cfg.utility("adaptive"), cfg.samples
    )
    return {
        "load": "exponential",
        "samples": cfg.samples,
        "capacity": CAPACITIES,
        "delta": [sampled.performance_gap(c) for c in CAPACITIES],
        "Delta": [sampled.bandwidth_gap(c) for c in CAPACITIES],
        "rigid_ratio_z3_s3": sampling_rigid_ratio(cfg.z, 3),
        "rigid_ratio_z2p1_s3": sampling_rigid_ratio(2.1, 3),
    }


def _retrying_T5(cfg: PaperConfig) -> dict:
    retry = RetryingModel(
        cfg.load("algebraic"), cfg.utility("adaptive"), alpha=cfg.alpha
    )
    return {
        "load": "algebraic",
        "alpha": cfg.alpha,
        "capacity": RETRY_CAPACITIES,
        "best_effort": [retry.best_effort(c) for c in RETRY_CAPACITIES],
        "reservation": [retry.reservation(c) for c in RETRY_CAPACITIES],
        "delta": [retry.performance_gap(c) for c in RETRY_CAPACITIES],
        "rigid_ratio": retrying_rigid_ratio(cfg.z, cfg.alpha),
        "rigid_ratio_z2p1": retrying_rigid_ratio(2.1, cfg.alpha),
    }


def _retrying_gamma(cfg: PaperConfig) -> dict:
    reversal = retrying_gamma(cfg)
    return {
        "load": "algebraic",
        "alpha": cfg.alpha,
        "price": reversal["price"].tolist(),
        "gamma": reversal["gamma"].tolist(),
    }


def _meanfield(cfg: PaperConfig) -> dict:
    from repro.meanfield import MeanFieldSimulator
    from repro.simulation import BirthDeathProcess, Link

    meanfield = MeanFieldSimulator(
        BirthDeathProcess(cfg.load("poisson")), Link(cfg.kbar)
    )
    adaptive = cfg.utility("adaptive")
    return {
        "load": "poisson",
        "capacity": CAPACITIES,
        "best_effort": [
            float(v) for v in meanfield.best_effort_batch(adaptive, CAPACITIES)
        ],
        "reservation": [
            float(v) for v in meanfield.reservation_batch(adaptive, CAPACITIES)
        ],
        "gap": [float(v) for v in meanfield.gap_batch(adaptive, CAPACITIES)],
    }


def _traces(cfg: PaperConfig) -> dict:
    from repro.traces.summary import DEFAULT_REPLAY_SPECS, replay_summary

    return {
        "tolerance": "rtol 1e-7",
        "replays": [replay_summary(dict(spec)) for spec in DEFAULT_REPLAY_SPECS],
    }


#: Section name -> builder, in file order.
SECTIONS: Dict[str, Callable[[PaperConfig], dict]] = {
    **{figure: _figure(load_name) for figure, load_name in FIGURES.items()},
    "algebraic_shared_tables": _algebraic_shared_tables,
    "continuum_rigid_exp": _continuum_rigid_exp,
    "sampling_T4": _sampling_T4,
    "retrying_T5": _retrying_T5,
    "retrying_gamma": _retrying_gamma,
    census_reference.SECTION: lambda cfg: census_reference.pins(),
    "meanfield": _meanfield,
    "traces": _traces,
}


def main() -> int:
    names = sys.argv[1:]
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"unknown sections {unknown}; known: {list(SECTIONS)}", file=sys.stderr)
        return 2
    cfg = DEFAULT_CONFIG
    if names:
        payload = json.loads(OUT.read_text())
    else:
        names = list(SECTIONS)
        payload = {
            "_meta": {
                "generator": "tests/golden/generate.py",
                "kbar": cfg.kbar,
                "kappa": cfg.kappa,
                "z": cfg.z,
                "utility": "adaptive",
                "rtol": 1e-7,
            }
        }
    for name in names:
        payload[name] = SECTIONS[name](cfg)

    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {', '.join(names)} to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
