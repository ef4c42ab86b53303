"""The comparison contract, held for every capacity model.

Each model supplies ``B`` and ``R`` over a capacity grid; ``delta``,
``Delta``, the totals, the scalar views and the sweep are derived by
:class:`~repro.models.base.CapacityModel` (or, where the paper gives
one, by a closed-form override).  These checks run the same small
grid through all of them.
"""

import numpy as np
import pytest

from repro.continuum import (
    AdaptiveAlgebraicContinuum,
    AdaptiveExponentialContinuum,
    AlgebraicTailAlgebraicContinuum,
    ContinuumModel,
    ContinuumSamplingModel,
    RigidAlgebraicContinuum,
    RigidExponentialContinuum,
)
from repro.extensions import RiskAverseModel, ScaledUtility, TwoClassModel
from repro.loads import ExponentialLoad, GeometricLoad, PoissonLoad
from repro.models import CapacityModel, RetryingModel, SamplingModel, VariableLoadModel
from repro.utility import AdaptiveUtility, PiecewiseLinearUtility
from tests.conftest import SMALL_MEAN

#: ``name -> (model factory, capacity grid)``, one entry per contract
#: class, each grid inside its model's domain (the Pareto closed forms
#: need ``C >= 1``; the retry fixed point needs a provisioned link).
CONTRACT_MODELS = {
    "variable_load": (
        lambda: VariableLoadModel(PoissonLoad(SMALL_MEAN), AdaptiveUtility()),
        [6.0, 12.0, 24.0],
    ),
    "sampling_model": (
        lambda: SamplingModel(GeometricLoad.from_mean(SMALL_MEAN), AdaptiveUtility(), 3),
        [6.0, 12.0, 24.0],
    ),
    "retrying": (
        lambda: RetryingModel(GeometricLoad.from_mean(SMALL_MEAN), AdaptiveUtility()),
        [24.0, 36.0, 48.0],
    ),
    "risk_averse": (
        lambda: RiskAverseModel(
            GeometricLoad.from_mean(SMALL_MEAN), AdaptiveUtility(), samples=4
        ),
        [6.0, 12.0, 24.0],
    ),
    "two_class": (
        lambda: TwoClassModel(
            (PoissonLoad(6.0), PoissonLoad(2.0)),
            (AdaptiveUtility(), ScaledUtility(AdaptiveUtility(), 2.0)),
            demands=(1.0, 2.0),
        ),
        [6.0, 10.0, 16.0],
    ),
    "continuum": (
        lambda: ContinuumModel(
            ExponentialLoad(1.0), PiecewiseLinearUtility(0.5), k_max_override=lambda c: c
        ),
        [0.5, 1.0, 2.0],
    ),
    "continuum_sampling": (
        lambda: ContinuumSamplingModel(ExponentialLoad(1.0), PiecewiseLinearUtility(0.5), 3),
        [0.5, 1.0, 2.0],
    ),
    "algebraic_tail": (
        lambda: AlgebraicTailAlgebraicContinuum(3.0, 2.0),
        [2.0, 8.0, 32.0],
    ),
    "rigid_exponential": (lambda: RigidExponentialContinuum(1.0), [0.5, 2.0, 8.0]),
    "rigid_algebraic": (lambda: RigidAlgebraicContinuum(3.0), [1.0, 4.0, 16.0]),
    "adaptive_exponential": (
        lambda: AdaptiveExponentialContinuum(0.5, 1.0),
        [0.5, 2.0, 8.0],
    ),
    "adaptive_algebraic": (
        lambda: AdaptiveAlgebraicContinuum(3.0, 0.5),
        [1.0, 4.0, 16.0],
    ),
}

QUANTITIES = ("best_effort", "reservation", "performance_gap", "bandwidth_gap")


@pytest.fixture(params=sorted(CONTRACT_MODELS))
def case(request):
    make, grid = CONTRACT_MODELS[request.param]
    return make(), np.array(grid)


def test_every_model_is_a_capacity_model(case):
    model, _ = case
    assert isinstance(model, CapacityModel)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_view_equals_its_grid_call(case, quantity):
    model, grid = case
    batch = getattr(model, f"{quantity}_batch")(grid)
    view = [getattr(model, quantity)(c) for c in grid]
    # a point alone and inside a wider grid differ at most by
    # summation-order roundoff, carried through the gap solver
    assert view == pytest.approx(batch.tolist(), rel=1e-10, abs=1e-13)


def test_performance_gap_is_r_minus_b(case):
    model, grid = case
    gap = model.reservation_batch(grid) - model.best_effort_batch(grid)
    if not isinstance(model, RetryingModel):
        # the retrying gap goes negative at low C (paper Section 5.2)
        gap = np.maximum(0.0, gap)
    assert model.performance_gap_batch(grid) == pytest.approx(gap, rel=1e-9, abs=1e-13)


def test_bandwidth_gap_solves_its_equation(case):
    model, grid = case
    gaps = model.bandwidth_gap_batch(grid)
    live = gaps > 0.0
    assert np.any(live)
    closed = model.best_effort_batch(grid[live] + gaps[live])
    assert closed == pytest.approx(model.reservation_batch(grid[live]), abs=1e-9)


def test_totals_are_mean_load_times_the_utilities(case):
    model, grid = case
    kbar = model.mean_load
    assert model.total_best_effort_batch(grid) == pytest.approx(
        kbar * model.best_effort_batch(grid), rel=1e-14
    )
    assert model.total_reservation_batch(grid) == pytest.approx(
        kbar * model.reservation_batch(grid), rel=1e-14
    )
    c = float(grid[1])
    assert model.total_best_effort(c) == pytest.approx(kbar * model.best_effort(c), rel=1e-14)
    assert model.total_reservation(c) == pytest.approx(kbar * model.reservation(c), rel=1e-14)


def test_sweep_returns_the_four_series(case):
    model, grid = case
    out = model.sweep(grid)
    assert set(out) == {"capacity", *QUANTITIES}
    assert out["capacity"].tolist() == grid.tolist()
    for quantity in QUANTITIES:
        expected = getattr(model, f"{quantity}_batch")(grid)
        assert out[quantity].tolist() == expected.tolist()
