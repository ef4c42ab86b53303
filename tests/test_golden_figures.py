"""Golden-value pins for the paper figures (CI quality gate).

``tests/golden/figures.json`` stores δ(C), Δ(C) and γ(p) at canonical
grid points per figure at the paper's parameters (k̄ = 100,
κ = 0.62086, z = 3).  Every quantity is asserted twice — once point by
point through the scalar API (one-element views of the batch kernels)
and once as a grid call — so CI catches a regression in the kernels
*and* any scalar path that forks away from them.  Regenerate
deliberately with

    PYTHONPATH=src python tests/golden/generate.py

Failure messages name the figure and the grid point so a red CI run
points straight at the number that moved.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.continuum import (
    RigidExponentialContinuum,
    retrying_rigid_ratio,
    sampling_rigid_ratio,
)
from repro.experiments.figures import retrying_gamma
from repro.experiments.params import DEFAULT_CONFIG
from repro.models import (
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "figures.json"
FIGURES = {"figure2": "poisson", "figure3": "exponential", "figure4": "algebraic"}

#: Relative agreement demanded of both call forms against the stored values.
RTOL = 1e-7

#: Absolute slack for near-zero gaps: the gap solvers resolve roots to
#: an absolute x-tolerance, so gaps in the 1e-8 range carry absolute
#: (not relative) error; 1e-9 is comfortably above the solver floor
#: and far below any value the figures actually plot.
ATOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _models(load_name):
    cfg = DEFAULT_CONFIG
    return VariableLoadModel(cfg.load(load_name), cfg.utility("adaptive"))


def _assert_pointwise(figure, quantity, grid, got, want, path):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    ok = np.isclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise AssertionError(
            f"{figure} {quantity} via {path} diverged from golden at "
            f"grid point {grid[i]!r}: got {got[i]!r}, expected {want[i]!r} "
            f"(rtol {RTOL:g}, atol {ATOL:g})"
        )


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_delta_scalar_and_batch(figure, golden):
    entry = golden[figure]
    caps = entry["capacity"]
    model = _models(entry["load"])
    scalar = [model.performance_gap(float(c)) for c in caps]
    _assert_pointwise(figure, "delta(C)", caps, scalar, entry["delta"], "scalar")
    batch = _models(entry["load"]).performance_gap_batch(np.asarray(caps))
    _assert_pointwise(figure, "delta(C)", caps, batch, entry["delta"], "batch")


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_bandwidth_gap_scalar_and_batch(figure, golden):
    entry = golden[figure]
    caps = entry["capacity"]
    model = _models(entry["load"])
    scalar = [model.bandwidth_gap(float(c)) for c in caps]
    _assert_pointwise(figure, "Delta(C)", caps, scalar, entry["Delta"], "scalar")
    batch = _models(entry["load"]).bandwidth_gap_batch(np.asarray(caps))
    _assert_pointwise(figure, "Delta(C)", caps, batch, entry["Delta"], "batch")


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_gamma_curve(figure, golden):
    entry = golden[figure]
    prices = entry["price"]
    want = [np.nan if g is None else g for g in entry["gamma"]]
    welfare = WelfareModel(_models(entry["load"]))
    curve = welfare.ratio_curve(prices)
    _assert_pointwise(figure, "gamma(p)", prices, curve["gamma"], want, "ratio_curve")
    batch = welfare.equalizing_ratio_batch(np.asarray(prices))
    _assert_pointwise(figure, "gamma(p)", prices, batch, want, "batch")


@pytest.mark.parametrize("quantity", ["best_effort", "delta", "Delta"])
def test_algebraic_shared_tables_scalar_and_batch(quantity, golden):
    """Pin the shared zeta-table / polynomial-tail path end to end.

    The capacities straddle the planner's series levels (TAIL at
    n = 512 below ~200, n = 1024 above), so these pins exercise the
    memoised moment-tail tables, the certified Maclaurin polynomial
    and the level-grouping of the batch path — on the heavy-tailed
    algebraic load where a regression in any of them moves B(C) far
    beyond the 1e-7 pin.
    """
    entry = golden["algebraic_shared_tables"]
    caps = entry["capacity"]
    model = _models(entry["load"])
    scalar_fn = {
        "best_effort": model.best_effort,
        "delta": model.performance_gap,
        "Delta": model.bandwidth_gap,
    }[quantity]
    scalar = [scalar_fn(float(c)) for c in caps]
    _assert_pointwise(
        "algebraic_shared_tables", quantity, caps, scalar, entry[quantity], "scalar"
    )
    fresh = _models(entry["load"])
    batch_fn = {
        "best_effort": fresh.best_effort_batch,
        "delta": fresh.performance_gap_batch,
        "Delta": fresh.bandwidth_gap_batch,
    }[quantity]
    batch = batch_fn(np.asarray(caps))
    _assert_pointwise(
        "algebraic_shared_tables", quantity, caps, batch, entry[quantity], "batch"
    )


def test_continuum_gamma_scalar_and_batch(golden):
    entry = golden["continuum_rigid_exp"]
    prices = entry["price"]
    cont = RigidExponentialContinuum(1.0)
    scalar = [cont.equalizing_ratio(float(p)) for p in prices]
    _assert_pointwise(
        "continuum_rigid_exp", "gamma(p)", prices, scalar, entry["gamma"], "scalar"
    )
    batch = cont.equalizing_ratio_batch(np.asarray(prices))
    _assert_pointwise(
        "continuum_rigid_exp", "gamma(p)", prices, batch, entry["gamma"], "batch"
    )


@pytest.mark.parametrize("utility", ["rigid", "adaptive"])
def test_poisson_large_kbar_scalar_and_batch(utility, golden):
    """Pin the mass window: a Poisson census at k̄ = 1e7 lies far past
    the dense cap counted from k = 0, so only a sum that starts where
    the mass is reaches these reference values."""
    entry = golden["poisson_large_kbar"]
    caps = entry["capacity"]
    pins = entry[utility]

    def model():
        cfg = dataclasses.replace(DEFAULT_CONFIG, kbar=entry["kbar"])
        return VariableLoadModel(cfg.load(entry["load"]), cfg.utility(utility))

    scalar_model, batch_model = model(), model()
    grid = np.asarray(caps)
    for quantity, scalar_fn, batch_fn in (
        ("best_effort", scalar_model.best_effort, batch_model.best_effort_batch),
        ("reservation", scalar_model.reservation, batch_model.reservation_batch),
        ("delta", scalar_model.performance_gap, batch_model.performance_gap_batch),
        ("Delta", scalar_model.bandwidth_gap, batch_model.bandwidth_gap_batch),
    ):
        label = f"poisson_large_kbar/{utility}"
        scalar = [scalar_fn(float(c)) for c in caps]
        _assert_pointwise(label, quantity, caps, scalar, pins[quantity], "scalar")
        _assert_pointwise(label, quantity, caps, batch_fn(grid), pins[quantity], "batch")


def _sampling_model(entry):
    cfg = DEFAULT_CONFIG
    return SamplingModel(
        cfg.load(entry["load"]), cfg.utility("adaptive"), entry["samples"]
    )


def test_sampling_T4_delta_scalar_and_batch(golden):
    entry = golden["sampling_T4"]
    caps = entry["capacity"]
    model = _sampling_model(entry)
    scalar = [model.performance_gap(float(c)) for c in caps]
    _assert_pointwise("sampling_T4", "delta(C)", caps, scalar, entry["delta"], "scalar")
    batch = _sampling_model(entry).performance_gap_batch(np.asarray(caps))
    _assert_pointwise("sampling_T4", "delta(C)", caps, batch, entry["delta"], "batch")


def test_sampling_T4_bandwidth_gap_scalar_and_batch(golden):
    entry = golden["sampling_T4"]
    caps = entry["capacity"]
    model = _sampling_model(entry)
    scalar = [model.bandwidth_gap(float(c)) for c in caps]
    _assert_pointwise("sampling_T4", "Delta(C)", caps, scalar, entry["Delta"], "scalar")
    batch = _sampling_model(entry).bandwidth_gap_batch(np.asarray(caps))
    _assert_pointwise("sampling_T4", "Delta(C)", caps, batch, entry["Delta"], "batch")


def test_sampling_T4_closed_form_ratios(golden):
    entry = golden["sampling_T4"]
    assert sampling_rigid_ratio(DEFAULT_CONFIG.z, 3) == pytest.approx(
        entry["rigid_ratio_z3_s3"], rel=RTOL
    )
    assert sampling_rigid_ratio(2.1, 3) == pytest.approx(
        entry["rigid_ratio_z2p1_s3"], rel=RTOL
    )


def _retrying_model(entry):
    cfg = DEFAULT_CONFIG
    return RetryingModel(
        cfg.load(entry["load"]), cfg.utility("adaptive"), alpha=entry["alpha"]
    )


@pytest.mark.parametrize("quantity", ["best_effort", "reservation", "delta"])
def test_retrying_T5_curves_scalar_and_batch(quantity, golden):
    entry = golden["retrying_T5"]
    caps = entry["capacity"]
    model = _retrying_model(entry)
    scalar_fn = {
        "best_effort": model.best_effort,
        "reservation": model.reservation,
        "delta": model.performance_gap,
    }[quantity]
    scalar = [scalar_fn(float(c)) for c in caps]
    _assert_pointwise(
        "retrying_T5", quantity, caps, scalar, entry[quantity], "scalar"
    )
    fresh = _retrying_model(entry)
    grid = np.asarray(caps)
    batch = {
        "best_effort": lambda: fresh.best_effort_batch(grid),
        "reservation": lambda: fresh.reservation_batch(grid),
        # delta~ = R~ - B, unclipped, as RetryingModel.performance_gap defines it
        "delta": lambda: fresh.reservation_batch(grid) - fresh.best_effort_batch(grid),
    }[quantity]()
    _assert_pointwise("retrying_T5", quantity, caps, batch, entry[quantity], "batch")


def test_retrying_T5_closed_form_ratios(golden):
    entry = golden["retrying_T5"]
    assert retrying_rigid_ratio(DEFAULT_CONFIG.z, entry["alpha"]) == pytest.approx(
        entry["rigid_ratio"], rel=RTOL
    )
    assert retrying_rigid_ratio(2.1, entry["alpha"]) == pytest.approx(
        entry["rigid_ratio_z2p1"], rel=RTOL
    )


def test_retrying_gamma_reversal(golden):
    """Pin the Section 5.2 welfare reversal: with retries, gamma(p) rises
    to an interior peak and then falls toward small p."""
    entry = golden["retrying_gamma"]
    curve = retrying_gamma(DEFAULT_CONFIG)
    prices = entry["price"]
    _assert_pointwise("retrying_gamma", "price", prices, curve["price"], prices, "grid")
    _assert_pointwise(
        "retrying_gamma", "gamma(p)", prices, curve["gamma"], entry["gamma"], "ratio_curve"
    )
    gamma = np.asarray(entry["gamma"])
    peak = int(np.argmax(gamma))
    assert 0 < peak < gamma.size - 1 and gamma[0] < gamma[peak]


@pytest.mark.parametrize("quantity", ["best_effort", "reservation", "gap"])
def test_meanfield_fluid_surfaces(quantity, golden):
    # the fluid solve + Gauss-Hermite diffusion functionals are fully
    # deterministic, so the engine must reproduce its pins bit-for-bit
    # (within RTOL) on every machine
    from repro.meanfield import MeanFieldSimulator
    from repro.simulation import BirthDeathProcess, Link

    entry = golden["meanfield"]
    caps = np.asarray(entry["capacity"], dtype=float)
    cfg = DEFAULT_CONFIG
    sim = MeanFieldSimulator(
        BirthDeathProcess(cfg.load(entry["load"])), Link(cfg.kbar)
    )
    adaptive = cfg.utility("adaptive")
    batch = {
        "best_effort": lambda: sim.best_effort_batch(adaptive, caps),
        "reservation": lambda: sim.reservation_batch(adaptive, caps),
        "gap": lambda: sim.gap_batch(adaptive, caps),
    }[quantity]()
    _assert_pointwise("meanfield", quantity, caps, batch, entry[quantity], "batch")


def test_traces_replay_pins(golden):
    # seeded workload generation + the occupancy sweep + the paired
    # estimators are all deterministic, so a fresh replay must land on
    # the pinned B-hat/R-hat/gap to rtol 1e-7 and the exact flow count
    from repro.traces.summary import SPEC_KEYS, replay_summary

    entry = golden["traces"]
    assert entry["replays"], "golden traces section is empty"
    for pinned in entry["replays"]:
        spec = {key: pinned[key] for key in SPEC_KEYS}
        fresh = replay_summary(spec)
        label = f"traces:{pinned['workload']}"
        assert fresh["flows"] == pinned["flows"], (
            f"{label}: flow count drifted — got {fresh['flows']}, "
            f"pinned {pinned['flows']}"
        )
        for quantity in ("best_effort", "reservation", "gap", "mean_census"):
            _assert_pointwise(
                label,
                quantity,
                [spec["seed"]],
                [fresh[quantity]],
                [pinned[quantity]],
                "replay",
            )
