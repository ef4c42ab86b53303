"""Tests for the Section 5.2 retrying extension."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.experiments.params import DEFAULT_CONFIG
from repro.loads import GeometricLoad
from repro.models import RetryingModel, VariableLoadModel
from repro.utility import AdaptiveUtility


class TestOfferedLoadFixedPoint:
    def test_inflation_is_self_consistent(self, geometric_load, rigid):
        m = RetryingModel(geometric_load, rigid, alpha=0.1)
        c = 2.0 * geometric_load.mean
        inflated = m.offered_mean(c)
        theta = m.blocking_probability(c)
        assert inflated == pytest.approx(
            geometric_load.mean / (1.0 - theta), rel=1e-6
        )

    def test_inflation_exceeds_intrinsic(self, any_load, rigid):
        # capacity comfortably above the mean: blocking is present but
        # the retry load converges
        m = RetryingModel(any_load, rigid, alpha=0.1)
        assert m.offered_mean(2.0 * any_load.mean) > any_load.mean

    def test_inflation_vanishes_when_unblocked(self, poisson_load, rigid):
        m = RetryingModel(poisson_load, rigid, alpha=0.1)
        big_c = 8.0 * poisson_load.mean
        assert m.retries_per_flow(big_c) == pytest.approx(0.0, abs=1e-9)

    def test_heavy_blocking_raises(self, algebraic_load, rigid):
        m = RetryingModel(algebraic_load, rigid, alpha=0.1)
        with pytest.raises(ModelError, match="blocking"):
            m.offered_mean(0.05 * algebraic_load.mean)

    def test_fixed_point_cached(self, geometric_load, rigid):
        m = RetryingModel(geometric_load, rigid, alpha=0.1)
        c = 2.0 * geometric_load.mean
        assert m.offered_mean(c) == m.offered_mean(c)


class TestBalance:
    """The offered load is one monotone root per capacity of
    ``L~ (1 - theta(L~)) = E_{L~}[min(K, k_max)] = L``."""

    @pytest.mark.parametrize("family", ["poisson", "exponential", "algebraic"])
    def test_residual_at_machine_precision(self, family):
        cfg = DEFAULT_CONFIG
        model = RetryingModel(cfg.load(family), cfg.utility("adaptive"), alpha=cfg.alpha)
        for factor in (1.3, 2.0, 4.0, 10.0):
            capacity = factor * cfg.kbar
            carried = model.offered_mean(capacity) * (
                1.0 - model.blocking_probability(capacity)
            )
            assert abs(carried - cfg.kbar) <= 1e-12 * cfg.kbar, (family, factor)

    def test_grid_with_one_diverging_capacity_names_it(self):
        cfg = DEFAULT_CONFIG
        model = RetryingModel(cfg.load("algebraic"), cfg.utility("adaptive"))
        with pytest.raises(ModelError, match=r"blocking .* at C=5\.0 .*diverges"):
            model.reservation_batch([200.0, 5.0, 400.0])

    def test_grid_solve_equals_one_point_solves(self, algebraic_load, adaptive):
        caps = [m * algebraic_load.mean for m in (1.5, 2.0, 3.0, 6.0)]
        grid = RetryingModel(algebraic_load, adaptive).reservation_batch(caps)
        single = [RetryingModel(algebraic_load, adaptive).reservation(c) for c in caps]
        np.testing.assert_array_equal(grid, single)


class TestRetryUtility:
    def test_alpha_zero_beats_basic_model(self, geometric_load, adaptive):
        # free retries: every flow is eventually admitted, so the
        # reservation utility exceeds the basic (reject-forever) model
        # (capacity must exceed the mean or the retry load diverges)
        retry = RetryingModel(geometric_load, adaptive, alpha=0.0)
        base = VariableLoadModel(geometric_load, adaptive)
        c = 2.0 * geometric_load.mean
        assert retry.reservation(c) > base.reservation(c)

    def test_utility_decreasing_in_alpha(self, geometric_load, adaptive):
        c = 2.0 * geometric_load.mean
        values = [
            RetryingModel(geometric_load, adaptive, alpha=a).reservation(c)
            for a in (0.0, 0.1, 0.3)
        ]
        assert values[0] > values[1] > values[2]

    def test_best_effort_unchanged(self, geometric_load, adaptive):
        retry = RetryingModel(geometric_load, adaptive, alpha=0.1)
        base = VariableLoadModel(geometric_load, adaptive)
        for c in (5.0, 12.0, 30.0):
            assert retry.best_effort(c) == base.best_effort(c)

    def test_large_capacity_approaches_one(self, geometric_load, adaptive):
        m = RetryingModel(geometric_load, adaptive, alpha=0.1)
        assert m.reservation(12.0 * geometric_load.mean) == pytest.approx(
            1.0, abs=0.05
        )

    def test_gap_can_exceed_basic_model(self, algebraic_load, adaptive):
        # the paper: retrying amplifies the algebraic-load gaps
        retry = RetryingModel(algebraic_load, adaptive, alpha=0.1)
        base = VariableLoadModel(algebraic_load, adaptive)
        c = 4.0 * algebraic_load.mean
        assert retry.performance_gap(c) > base.performance_gap(c)

    def test_invalid_alpha(self, geometric_load, adaptive):
        with pytest.raises(ValueError):
            RetryingModel(geometric_load, adaptive, alpha=-0.1)

    def test_zero_capacity(self, geometric_load, adaptive):
        assert RetryingModel(geometric_load, adaptive).reservation(0.0) == 0.0


class TestGapSolver:
    def test_bandwidth_gap_solves_equation(self, geometric_load, adaptive):
        m = RetryingModel(geometric_load, adaptive, alpha=0.1)
        c = 2.0 * geometric_load.mean
        gap = m.bandwidth_gap(c)
        if gap > 0.0:
            assert m.best_effort(c + gap) == pytest.approx(
                m.reservation(c), abs=1e-6
            )

    def test_gap_zero_when_retries_erase_advantage(self):
        # with a savage retry penalty, reservations fall below best
        # effort at moderate capacity; the gap clips to zero
        load = GeometricLoad.from_mean(12.0)
        m = RetryingModel(load, AdaptiveUtility(), alpha=1.0)
        c = 2.0 * load.mean
        assert m.reservation(c) < m.best_effort(c)
        assert m.bandwidth_gap(c) == 0.0

    def test_sweep_shape(self, geometric_load, adaptive):
        out = RetryingModel(geometric_load, adaptive, alpha=0.1).sweep(
            [18.0, 24.0, 36.0]
        )
        assert len(out["capacity"]) == 3
        assert "performance_gap" in out
