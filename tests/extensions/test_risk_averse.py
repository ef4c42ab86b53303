"""Tests for the risk-averse scoring extension."""

import numpy as np
import pytest

from repro.extensions import RiskAverseModel
from repro.models import Architecture, SamplingModel, VariableLoadModel, WelfareModel


class TestBlending:
    def test_zero_aversion_is_basic_model(self, geometric_load, adaptive):
        risk = RiskAverseModel(geometric_load, adaptive, samples=8, aversion=0.0)
        base = VariableLoadModel(geometric_load, adaptive)
        for c in (6.0, 12.0, 24.0):
            assert risk.best_effort(c) == pytest.approx(base.best_effort(c), abs=1e-10)
            assert risk.reservation(c) == pytest.approx(base.reservation(c), abs=1e-10)

    def test_full_aversion_is_sampling_model(self, geometric_load, adaptive):
        risk = RiskAverseModel(geometric_load, adaptive, samples=8, aversion=1.0)
        sampled = SamplingModel(geometric_load, adaptive, 8)
        for c in (6.0, 12.0):
            assert risk.best_effort(c) == pytest.approx(
                sampled.best_effort(c), abs=1e-10
            )

    def test_blend_is_convex_combination(self, geometric_load, adaptive):
        c = 12.0
        base = VariableLoadModel(geometric_load, adaptive).best_effort(c)
        worst = SamplingModel(geometric_load, adaptive, 8).best_effort(c)
        risk = RiskAverseModel(
            geometric_load, adaptive, samples=8, aversion=0.3
        ).best_effort(c)
        assert risk == pytest.approx(0.7 * base + 0.3 * worst, abs=1e-10)

    def test_invalid_aversion(self, geometric_load, adaptive):
        with pytest.raises(ValueError):
            RiskAverseModel(geometric_load, adaptive, aversion=1.5)


class TestRiskAmplifiesTheCase:
    def test_gap_grows_with_aversion(self, geometric_load, adaptive):
        c = 12.0
        gaps = [
            RiskAverseModel(
                geometric_load, adaptive, samples=8, aversion=w
            ).performance_gap(c)
            for w in (0.0, 0.5, 1.0)
        ]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_bandwidth_gap_grows_with_aversion(self, geometric_load, adaptive):
        c = 12.0
        low = RiskAverseModel(geometric_load, adaptive, samples=8, aversion=0.1)
        high = RiskAverseModel(geometric_load, adaptive, samples=8, aversion=0.9)
        assert high.bandwidth_gap(c) > low.bandwidth_gap(c)

    def test_reservation_still_dominates(self, geometric_load, adaptive):
        m = RiskAverseModel(geometric_load, adaptive, samples=8, aversion=0.6)
        for c in (6.0, 12.0, 30.0):
            assert m.reservation(c) >= m.best_effort(c) - 1e-10

    def test_bandwidth_gap_solves_blended_equation(self, geometric_load, adaptive):
        m = RiskAverseModel(geometric_load, adaptive, samples=4, aversion=0.5)
        c = 10.0
        gap = m.bandwidth_gap(c)
        assert gap > 0.0
        assert m.best_effort(c + gap) == pytest.approx(m.reservation(c), abs=1e-6)

    def test_k_max_shared(self, geometric_load, adaptive):
        m = RiskAverseModel(geometric_load, adaptive, samples=4, aversion=0.5)
        base = VariableLoadModel(geometric_load, adaptive)
        assert m.k_max(15.0) == base.k_max(15.0)


class TestWelfare:
    def test_batch_calls_are_the_blend(self, geometric_load, adaptive):
        m = RiskAverseModel(geometric_load, adaptive, samples=4, aversion=0.3)
        caps = [6.0, 12.0, 24.0]
        np.testing.assert_allclose(
            m.best_effort_batch(caps), [m.best_effort(c) for c in caps], rtol=1e-12
        )
        np.testing.assert_allclose(
            m.reservation_batch(caps), [m.reservation(c) for c in caps], rtol=1e-12
        )

    def test_welfare_over_a_capacity_table(self, geometric_load, adaptive):
        caps = np.geomspace(2.0, 400.0, 120)
        prices = [0.02, 0.05, 0.1]
        risk = RiskAverseModel(geometric_load, adaptive, samples=4, aversion=1.0)
        sampled = SamplingModel(geometric_load, adaptive, 4)
        got = WelfareModel(risk, capacities=caps)
        want = WelfareModel(sampled, capacities=caps)
        gamma = got.equalizing_ratio_batch(prices)
        assert np.all(gamma >= 1.0)
        np.testing.assert_allclose(gamma, want.equalizing_ratio_batch(prices), rtol=1e-12)
        for architecture in Architecture:
            np.testing.assert_allclose(
                got.provision_batch(prices, architecture)["welfare"],
                want.provision_batch(prices, architecture)["welfare"],
                rtol=1e-12,
            )
