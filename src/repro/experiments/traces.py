"""Trace-replay experiments: the paper's verdict on non-Poisson loads.

``TR1`` closes the loop on the streaming replay path itself: a seeded
Poisson workload replayed through the CRN-paired estimators must
recover the analytic ``delta(C)`` of the matching
:class:`~repro.models.VariableLoadModel`.  ``TR2``/``TR3`` then ask the
question the paper could not: what does the best-effort-vs-reservation
gap look like under a diurnal (sinusoidal-rate) and a bursty
(Markov-modulated on/off) load at the same mean rate?  Each sweep
sweeps capacity over one shared occupancy (the occupancy is
capacity-independent, so the trace is generated and swept exactly
once per experiment).

All results are flat dicts of equal-length arrays (scalars as length-1
arrays), the shape the PR-2 result cache serialises natively.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.loads import PoissonLoad
from repro.models import VariableLoadModel
from repro.traces.replay import sweep_occupancy
from repro.traces.workloads import default_workload

#: Capacity grid for the workload sweeps, as multiples of the mean
#: census: from mildly under- to comfortably over-provisioned.
CAPACITY_FACTORS = (1.0, 1.1, 1.25, 1.5)

#: Replay windows for the TR experiments (each window is scored as one
#: replication in the CRN pairing).
TR_WINDOWS = 16


def _sweep(workload, config: PaperConfig) -> Dict[str, np.ndarray]:
    """Generate once, sweep the occupancy once, evaluate per capacity."""
    utility = config.utility("adaptive")
    horizon = float(config.sim_horizon)
    warmup = float(config.sim_warmup)
    stream = workload.stream(horizon, seed=config.sim_seed)
    occupancy = sweep_occupancy(stream, windows=TR_WINDOWS, warmup=warmup)
    mean = workload.mean_census
    capacities = [mean * f for f in CAPACITY_FACTORS]
    rows = [occupancy.evaluate(utility, c) for c in capacities]
    return {
        "capacity": np.asarray(capacities),
        "best_effort": np.asarray([r.summary()["best_effort"] for r in rows]),
        "reservation": np.asarray([r.summary()["reservation"] for r in rows]),
        "gap": np.asarray([r.summary()["gap"] for r in rows]),
        "gap_ci": np.asarray([r.summary()["gap_ci"] for r in rows]),
        "threshold": np.asarray([r.threshold for r in rows]),
        "mean_census": np.asarray([occupancy.mean_census()]),
        "flows": np.asarray([float(occupancy.flows)]),
        "windows": np.asarray([float(TR_WINDOWS)]),
    }


def poisson_replay(config: Optional[PaperConfig] = None) -> Dict[str, np.ndarray]:
    """TR1: Poisson-workload replay vs the analytic delta.

    One seeded Poisson trace at the ``sim_*`` parameters, replayed at
    ``sim_capacity``; the analytic ``B``/``R``/``delta`` of the same
    load/utility ride along so the result is self-checking.
    """
    if config is None:
        config = DEFAULT_CONFIG
    utility = config.utility("adaptive")
    rate = float(config.sim_kbar)
    capacity = float(config.sim_capacity)
    workload = default_workload("poisson", rate)
    stream = workload.stream(float(config.sim_horizon), seed=config.sim_seed)
    occupancy = sweep_occupancy(
        stream, windows=TR_WINDOWS, warmup=float(config.sim_warmup)
    )
    result = occupancy.evaluate(utility, capacity)
    summary = result.summary()
    model = VariableLoadModel(PoissonLoad(rate), utility)
    analytic_be = float(model.best_effort(capacity))
    analytic_res = float(model.reservation(capacity))
    return {
        "capacity": np.asarray([capacity]),
        "flows": np.asarray([float(result.flows)]),
        "windows": np.asarray([float(result.windows)]),
        "replay_be": np.asarray([summary["best_effort"]]),
        "replay_be_ci": np.asarray([summary["best_effort_ci"]]),
        "replay_res": np.asarray([summary["reservation"]]),
        "replay_res_ci": np.asarray([summary["reservation_ci"]]),
        "replay_gap": np.asarray([summary["gap"]]),
        "replay_gap_ci": np.asarray([summary["gap_ci"]]),
        "analytic_be": np.asarray([analytic_be]),
        "analytic_res": np.asarray([analytic_res]),
        "analytic_gap": np.asarray([analytic_res - analytic_be]),
        "mean_census": np.asarray([result.mean_census]),
    }


def diurnal_sweep(config: Optional[PaperConfig] = None) -> Dict[str, np.ndarray]:
    """TR2: gap sweep under the sinusoidal-rate diurnal workload."""
    if config is None:
        config = DEFAULT_CONFIG
    return _sweep(default_workload("diurnal", float(config.sim_kbar)), config)


def bursty_sweep(config: Optional[PaperConfig] = None) -> Dict[str, np.ndarray]:
    """TR3: gap sweep under the Markov-modulated on/off workload."""
    if config is None:
        config = DEFAULT_CONFIG
    return _sweep(default_workload("bursty", float(config.sim_kbar)), config)
