"""Planner-level guarantees of the shared tail series.

Two properties carry the evaluation path:

1. **One implementation per quantity.**  The scalar entry points are
   one-element views of the batch kernels: a scalar call equals the
   one-element grid call on a fresh model bit for bit, for B, R, Delta
   and k_max, so a scalar path forked again fails here.  Wider grids
   differ from it only by summation-order roundoff.
2. **Plans are sound.**  Whatever mode the planner picks, the value it
   produces must match a deep dense reference within the model's
   tolerance, and the levels start at the load's mass window.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.loads import AlgebraicLoad
from repro.models import VariableLoadModel
from repro.models.variable_load import _MODE_DENSE, _MODE_TAIL
from repro.utility import AdaptiveUtility, PiecewiseLinearUtility, RigidUtility
from repro.verify import strategies

_ALG = AlgebraicLoad.from_mean(3.0, 100.0)
_ADAPTIVE = AdaptiveUtility()


class TestPlanParity:
    @given(
        model=strategies.models(),
        capacity=strategies.capacities(0.5, 400.0),
    )
    # the ramp's break point C/a ~ 1e153 sits at u ~ 1e-150 in the EM
    # tail, where cut/u**2 overflows though u * u does not
    @example(
        model=VariableLoadModel(
            AlgebraicLoad.from_mean(2.5, 5.0),
            PiecewiseLinearUtility(8.611625346396684e-154),
        ),
        capacity=1.0,
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_batch_values_agree(self, model, capacity):
        # fresh twins: the drawn model's caches would serve one path
        # from the other
        scalar = VariableLoadModel(model.load, model.utility)
        batch = VariableLoadModel(model.load, model.utility)
        one = np.array([capacity])
        # a view is its one-element grid call, bit for bit
        assert scalar.total_best_effort(capacity) == batch.total_best_effort_batch(one)[0]
        assert scalar.total_reservation(capacity) == batch.total_reservation_batch(one)[0]
        assert scalar.bandwidth_gap(capacity) == batch.bandwidth_gap_batch(one)[0]
        assert scalar.k_max(capacity) == batch.k_max_batch(one)[0]
        # a wider grid changes only the summation order
        wide = VariableLoadModel(model.load, model.utility)
        grid = np.array([capacity, 2.0 * capacity + 1.0])
        for scalar_fn, batch_fn in (
            (scalar.total_best_effort, wide.total_best_effort_batch),
            (scalar.total_reservation, wide.total_reservation_batch),
        ):
            got = batch_fn(grid)[0]
            assert got == pytest.approx(scalar_fn(capacity), rel=1e-11, abs=1e-13)
        assert wide.k_max_batch(grid)[0] == scalar.k_max(capacity)


class TestPlanSoundness:
    def test_tail_mode_matches_deep_dense_reference(self):
        """TAIL-mode B(C) agrees with brute summation to the tolerance.

        The reference head stops at 2^21 flows, where the omitted
        algebraic tail is bounded by pi(C/2^21) * mean_tail(2^21)
        ~ 3e-11 — well under the model tolerance the plan promises.
        """
        model = VariableLoadModel(_ALG, _ADAPTIVE)
        deep = 1 << 21
        caps = np.array([60.0, 150.0, 300.0])
        modes, levels = model._plan_batch(caps)
        assert np.all(modes == _MODE_TAIL)  # the case under test
        assert np.all(levels < deep)
        ks = np.arange(1, deep, dtype=float)
        kpk = ks * _ALG.pmf_array(ks)
        for capacity in caps:
            reference = float(kpk @ _ADAPTIVE(capacity / ks))
            slack = min(1.0, _ADAPTIVE.value(capacity / deep)) * _ALG.mean_tail(deep)
            got = model.total_best_effort(capacity)
            assert got == pytest.approx(
                reference, abs=2.0 * model._tol + slack
            )

    def test_dense_mode_for_light_tails(self):
        # a mean-100 Poisson window is 256 terms wide at most: every
        # figure-range capacity must plan DENSE at the first level,
        # k_lo + 256, never TAIL/EM
        from repro.loads import PoissonLoad

        model = VariableLoadModel(PoissonLoad(100.0), _ADAPTIVE)
        k_lo, k_hi = model.window
        assert 0 < k_lo and k_hi < k_lo + 256
        modes, levels = model._plan_batch(np.linspace(20.0, 220.0, 9))
        assert np.all(modes == _MODE_DENSE)
        assert np.all(levels == k_lo + 256)


class TestEulerMaclaurinDegenerateBreakpoints:
    def test_analytically_zero_tail_short_circuits(self):
        """Rigid utility, tiny capacity: the whole tail is exactly zero.

        Every share beyond the split point is below the rigid threshold,
        so the tail must come back 0.0 without handing quadrature an
        identically-zero integrand whose breakpoints map outside (0, 1]
        (the degenerate-interval warning this regression test pins down).
        """
        model = VariableLoadModel(_ALG, RigidUtility(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails = model._euler_maclaurin_tails(np.array([1.0, 4095.0]), np.array([4096, 4096]))
            assert np.all(tails == 0.0)

    def test_just_above_threshold_is_positive(self):
        model = VariableLoadModel(_ALG, RigidUtility(1.0))
        assert model._euler_maclaurin_tails(np.array([4200.0]), np.array([4096]))[0] > 0.0
