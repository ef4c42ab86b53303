"""Tests for admission policies and the shared link."""

import pytest

from repro.simulation import AdmitAll, Link, ThresholdAdmission
from repro.utility import AdaptiveUtility, RigidUtility


class TestAdmitAll:
    def test_always_admits(self):
        policy = AdmitAll()
        assert policy.admits(0, 10.0)
        assert policy.admits(10_000, 0.1)
        assert policy.threshold(5.0) == float("inf")

    def test_admitted_cap_is_the_census(self):
        assert AdmitAll().admitted_cap(5.0) == float("inf")


class TestThresholdAdmission:
    def test_fixed_threshold(self):
        policy = ThresholdAdmission(5)
        assert policy.admits(4, 10.0)
        assert not policy.admits(5, 10.0)

    def test_callable_threshold(self):
        policy = ThresholdAdmission(lambda c: c / 2.0)
        assert policy.threshold(10.0) == 5.0
        assert policy.admits(4, 10.0)
        assert not policy.admits(5, 10.0)

    def test_from_utility_rigid(self):
        policy = ThresholdAdmission.from_utility(RigidUtility(2.0))
        assert policy.threshold(10.0) == 5
        assert policy.admits(4, 10.0)
        assert not policy.admits(5, 10.0)

    def test_from_utility_adaptive_near_capacity(self):
        policy = ThresholdAdmission.from_utility(AdaptiveUtility())
        assert policy.threshold(50.0) == pytest.approx(50, abs=1)

    def test_readmit_flag(self):
        assert not ThresholdAdmission(5).readmit_waiting
        assert ThresholdAdmission(5, readmit_waiting=True).readmit_waiting

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdAdmission(-1)

    def test_admitted_cap_only_when_readmitting(self):
        # M = min(N, ceil(thr)) needs every freed slot refilled at once
        assert ThresholdAdmission(6.5).admitted_cap(10.0) is None
        # ...unless there is no threshold: every arrival gets in, M = N
        assert ThresholdAdmission(float("inf")).admitted_cap(10.0) == float("inf")
        unbounded_above_5 = ThresholdAdmission(
            lambda c: float("inf") if c > 5.0 else 3.0
        )
        assert unbounded_above_5.admitted_cap(10.0) == float("inf")
        assert unbounded_above_5.admitted_cap(4.0) is None
        assert ThresholdAdmission(6, readmit_waiting=True).admitted_cap(10.0) == 6
        assert ThresholdAdmission(
            6.5, readmit_waiting=True
        ).admitted_cap(10.0) == 7
        assert ThresholdAdmission(0, readmit_waiting=True).admitted_cap(10.0) == 0
        assert ThresholdAdmission(
            lambda c: float("inf"), readmit_waiting=True
        ).admitted_cap(10.0) == float("inf")
        assert ThresholdAdmission(
            lambda c: -2.5, readmit_waiting=True
        ).admitted_cap(10.0) == 0


class TestLink:
    def test_equal_shares(self):
        link = Link(12.0)
        assert link.share(4) == 3.0
        assert link.share(1) == 12.0

    def test_zero_flows_convention(self):
        assert Link(12.0).share(0) == 12.0

    def test_instantaneous_utility(self):
        link = Link(12.0)
        u = RigidUtility(1.0)
        assert link.instantaneous_utility(u, 12) == 1.0
        assert link.instantaneous_utility(u, 13) == 0.0
        assert link.instantaneous_utility(u, 0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Link(-1.0)
        with pytest.raises(ValueError):
            Link(1.0).share(-1)
