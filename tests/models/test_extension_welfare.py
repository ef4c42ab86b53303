"""Tests for welfare analysis over the Section 5 extension models.

The extension models go through the same :class:`WelfareModel` kernel
as the basic model, searching the capacity table they are given (the
retry fixed point is only valid well above the mean load).
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.loads import AlgebraicLoad, GeometricLoad
from repro.models import (
    Architecture,
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
)
from repro.utility import AdaptiveUtility


@pytest.fixture(scope="module")
def retry_welfare():
    load = AlgebraicLoad.from_mean(3.0, 12.0)
    retry = RetryingModel(load, AdaptiveUtility(), alpha=0.1)
    return (
        WelfareModel(retry, capacities=np.geomspace(30.0, 1200.0, 100)),
        load,
    )


class TestEnvelope:
    def test_reservation_welfare_dominates(self, retry_welfare):
        welfare, _ = retry_welfare
        lo, hi = welfare.price_range()
        for p in np.geomspace(lo * 1.2, hi * 0.8, 5):
            assert welfare.welfare_reservation(float(p)) >= (
                welfare.welfare_best_effort(float(p)) - 1e-6
            )

    def test_welfare_decreasing_in_price(self, retry_welfare):
        welfare, _ = retry_welfare
        lo, hi = welfare.price_range()
        ps = np.geomspace(lo * 1.2, hi * 0.8, 6)
        values = [welfare.welfare_best_effort(float(p)) for p in ps]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_price_outside_envelope_raises(self, retry_welfare):
        welfare, _ = retry_welfare
        _, hi = welfare.price_range()
        with pytest.raises(ModelError):
            welfare.welfare_best_effort(10.0 * hi)

    def test_bad_construction(self, retry_welfare):
        _, load = retry_welfare
        retry = RetryingModel(load, AdaptiveUtility(), alpha=0.1)
        with pytest.raises(ModelError):
            WelfareModel(retry, capacities=[100.0, 50.0])
        with pytest.raises(ValueError):
            WelfareModel(retry, capacities=[-1.0, 50.0, 100.0])


class TestSamplingConsistency:
    def test_s1_matches_base_welfare_model(self):
        # S = 1 sampling is the basic model, so its envelope gamma must
        # track WelfareModel's
        load = GeometricLoad.from_mean(12.0)
        u = AdaptiveUtility()
        s1 = SamplingModel(load, u, 1)
        ext = WelfareModel(s1, capacities=np.geomspace(8.0, 400.0, 140))
        base = WelfareModel(VariableLoadModel(load, u))
        for p in (0.05, 0.02):
            assert ext.equalizing_ratio(p) == pytest.approx(
                base.equalizing_ratio(p), rel=0.05
            )

    def test_sampling_raises_gamma(self):
        load = GeometricLoad.from_mean(12.0)
        u = AdaptiveUtility()
        caps = np.geomspace(8.0, 400.0, 160)
        s1 = WelfareModel(SamplingModel(load, u, 1), capacities=caps)
        s8 = WelfareModel(SamplingModel(load, u, 8), capacities=caps)
        p = 0.03
        assert s8.equalizing_ratio(p) > s1.equalizing_ratio(p)


class TestRetryNonMonotonicity:
    """The paper's Section 5.2 reversal: gamma(p) peaks then falls."""

    def test_gamma_exceeds_basic_model(self, retry_welfare):
        welfare, load = retry_welfare
        base = WelfareModel(VariableLoadModel(load, AdaptiveUtility()))
        p = 0.02
        assert welfare.equalizing_ratio(p) > base.equalizing_ratio(p)

    def test_gamma_non_monotone_with_interior_peak(self, retry_welfare):
        welfare, _ = retry_welfare
        lo, hi = welfare.price_range()
        ps = np.geomspace(lo * 1.3, hi * 0.7, 14)
        curve = welfare.ratio_curve(ps)
        gamma = curve["gamma"][~np.isnan(curve["gamma"])]
        peak = int(np.argmax(gamma))
        # the peak is interior: gamma decreases for very small p (the
        # paper's "now decreases for very small p")
        assert 0 < peak < len(gamma) - 1

    def test_ratio_curve_nan_outside_range(self, retry_welfare):
        welfare, _ = retry_welfare
        curve = welfare.ratio_curve([1e9])
        assert np.isnan(curve["gamma"][0])


class TestLegendreProperties:
    def test_welfare_convex_decreasing_in_price(self, retry_welfare):
        # the discrete Legendre transform is convex and decreasing
        welfare, _ = retry_welfare
        lo, hi = welfare.price_range()
        ps = np.geomspace(lo * 1.2, hi * 0.8, 9)
        w = np.array([welfare.welfare_reservation(float(p)) for p in ps])
        assert np.all(np.diff(w) < 0.0)
        # convexity along the (nonuniform) grid via second difference
        for i in range(1, len(ps) - 1):
            slope_left = (w[i] - w[i - 1]) / (ps[i] - ps[i - 1])
            slope_right = (w[i + 1] - w[i]) / (ps[i + 1] - ps[i])
            assert slope_right >= slope_left - 1e-9

    def test_optimal_capacity_decreasing_in_price(self, retry_welfare):
        welfare, _ = retry_welfare
        lo, hi = welfare.price_range()
        ps = np.geomspace(lo * 1.2, hi * 0.8, 6)
        caps = [
            welfare.optimal_capacity(float(p), Architecture.RESERVATION) for p in ps
        ]
        assert all(b <= a for a, b in zip(caps, caps[1:]))
