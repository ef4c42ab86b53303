"""Tests for the generic continuum quadrature engine."""

import pytest

from repro.continuum import ContinuumModel
from repro.errors import ModelError
from repro.loads import ExponentialLoad, ParetoLoad
from repro.utility import (
    AdaptiveUtility,
    ExponentialElasticUtility,
    PiecewiseLinearUtility,
    RigidUtility,
)


class TestKMax:
    def test_override_wins(self):
        m = ContinuumModel(
            ExponentialLoad(1.0), RigidUtility(1.0), k_max_override=lambda c: 0.5 * c
        )
        assert m.k_max(10.0) == 5.0

    def test_utility_hint_used(self):
        m = ContinuumModel(ExponentialLoad(1.0), PiecewiseLinearUtility(0.5))
        assert m.k_max(7.0) == 7.0

    def test_numeric_optimum_for_smooth_utility(self):
        m = ContinuumModel(ExponentialLoad(0.5), AdaptiveUtility())
        # kappa calibration puts the continuum optimum exactly at C
        assert m.k_max(10.0) == pytest.approx(10.0, rel=1e-3)

    def test_numeric_optimum_is_linear_in_capacity(self):
        # k pi(C/k) = C pi(b)/b with b = C/k: one optimal share b* for
        # every capacity, so k_max(C)/C is a constant
        m = ContinuumModel(ExponentialLoad(0.5), AdaptiveUtility())
        assert m.k_max(10.0) / 10.0 == pytest.approx(m.k_max(1000.0) / 1000.0, rel=1e-12)
        assert m.k_max(1000.0) == pytest.approx(1000.0 / m.optimal_share(), rel=1e-15)

    def test_elastic_raises(self):
        m = ContinuumModel(ExponentialLoad(1.0), ExponentialElasticUtility())
        with pytest.raises(ModelError, match="elastic"):
            m.k_max(3.0)

    def test_zero_capacity(self):
        m = ContinuumModel(ExponentialLoad(1.0), RigidUtility(1.0))
        assert m.k_max(0.0) == 0.0


class TestTotals:
    def test_best_effort_bounded_by_mean(self):
        m = ContinuumModel(ParetoLoad(3.0), AdaptiveUtility())
        for c in (1.0, 4.0, 16.0):
            assert 0.0 <= m.total_best_effort(c) <= m.mean_load

    def test_reservation_dominates(self):
        m = ContinuumModel(
            ParetoLoad(3.0), PiecewiseLinearUtility(0.5), k_max_override=lambda c: c
        )
        for c in (1.3, 3.0, 12.0):
            assert m.reservation(c) >= m.best_effort(c) - 1e-10

    def test_zero_capacity_zero_utility(self):
        m = ContinuumModel(ExponentialLoad(1.0), AdaptiveUtility())
        assert m.total_best_effort(0.0) == 0.0
        assert m.total_reservation(0.0) == 0.0

    def test_smooth_utility_with_heavy_tail(self):
        # the adaptive (Eq. 2) utility, which has no closed form, runs
        # through the same machinery
        m = ContinuumModel(ParetoLoad(3.0), AdaptiveUtility())
        assert 0.0 < m.best_effort(4.0) < m.reservation(4.0) < 1.0

    def test_rejects_negative_capacity(self):
        m = ContinuumModel(ExponentialLoad(1.0), AdaptiveUtility())
        with pytest.raises(ValueError):
            m.total_best_effort(-1.0)


class TestGap:
    def test_gap_solves_equation(self):
        m = ContinuumModel(
            ExponentialLoad(1.0), PiecewiseLinearUtility(0.5), k_max_override=lambda c: c
        )
        c = 2.0
        gap = m.bandwidth_gap(c)
        assert gap > 0.0
        assert m.best_effort(c + gap) == pytest.approx(m.reservation(c), abs=1e-8)

    def test_gap_zero_when_indistinguishable(self):
        m = ContinuumModel(
            ExponentialLoad(1.0), PiecewiseLinearUtility(0.0), k_max_override=lambda c: c
        )
        assert m.bandwidth_gap(2.0) == 0.0
