"""Tests for the vectorized ensemble engine."""

import numpy as np
import pytest

from repro import obs
from repro.errors import ModelError, SimulationBudgetError
from repro.loads import PoissonLoad
from repro.models import VariableLoadModel
from repro.simulation import (
    AdmissionPolicy,
    AdmitAll,
    BirthDeathProcess,
    EnsembleSimulator,
    FlowSimulator,
    Link,
    PoissonProcess,
    RegimeSwitchingProcess,
    ReplicationStream,
    ThresholdAdmission,
    paired_gap,
    spawn_children,
)
from repro.utility import AdaptiveUtility


class _EveryOther(AdmissionPolicy):
    """A custom policy: the vectorized engine cannot run it."""

    def admits(self, admitted, capacity):
        return admitted % 2 == 0


def small_ensemble(admission=None, **kwargs):
    return EnsembleSimulator(
        BirthDeathProcess(PoissonLoad(10.0)), Link(12.0), admission, **kwargs
    )


class TestRun:
    def test_shapes_and_padding(self):
        result = small_ensemble().run(5, 30.0, seed=1)
        assert result.replications == 5
        assert result.times.shape == result.census.shape == result.admitted.shape
        # padding is (horizon, 0, 0) beyond each row's valid prefix
        r = int(np.argmin(result.counts))
        c = int(result.counts[r])
        if c < result.times.shape[1]:
            assert result.times[r, c:].max() == result.times[r, c:].min() == 30.0
            assert result.census[r, c:].max() == 0.0
        assert result.engine == "vectorized"

    def test_reproducible(self):
        a = small_ensemble().run(4, 25.0, seed=9)
        b = small_ensemble().run(4, 25.0, seed=9)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.census, b.census)

    def test_events_property(self):
        result = small_ensemble().run(3, 20.0, seed=2)
        np.testing.assert_array_equal(result.events, result.counts - 1)
        assert (result.events > 0).all()

    def test_mean_census_near_target(self):
        result = small_ensemble().run(16, 120.0, warmup=20.0, seed=3)
        assert result.mean_census().mean() == pytest.approx(10.0, abs=1.0)

    def test_census_distribution_normalised(self):
        result = small_ensemble().run(4, 50.0, warmup=5.0, seed=4)
        _, probs = result.census_distribution()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget_error_diagnostics(self):
        with pytest.raises(SimulationBudgetError) as excinfo:
            small_ensemble().run(4, 1000.0, seed=1, max_events=64)
        err = excinfo.value
        assert err.events == 64
        assert 0.0 <= err.reached_t < err.horizon == 1000.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_ensemble().run(0, 10.0)
        with pytest.raises(ValueError):
            small_ensemble().run(2, 0.0)
        with pytest.raises(ValueError):
            small_ensemble().run(2, 10.0, warmup=10.0)
        with pytest.raises(ValueError):
            EnsembleSimulator(
                BirthDeathProcess(PoissonLoad(5.0)), Link(5.0), retry_rate=-1.0
            )
        with pytest.raises(ValueError):
            EnsembleSimulator(
                BirthDeathProcess(PoissonLoad(5.0)), Link(5.0), block=0
            )
        with pytest.raises(ModelError):
            EnsembleSimulator(
                BirthDeathProcess(PoissonLoad(5.0)),
                Link(5.0),
                ThresholdAdmission(3, readmit_waiting=True),
                lost_calls_cleared=True,
            )


class TestScalarFallback:
    def test_stateful_process_falls_back(self):
        proc = RegimeSwitchingProcess(
            [(1.0, PoissonLoad(6.0)), (1.0, PoissonLoad(12.0))], seed=2
        )
        ens = EnsembleSimulator(proc, Link(10.0))
        assert ens.vectorization_fallback() == "stateful_process"
        result = ens.run(3, 15.0, seed=6)
        assert result.engine == "scalar"
        assert result.replications == 3

    def test_custom_admission_falls_back(self):
        ens = EnsembleSimulator(
            BirthDeathProcess(PoissonLoad(8.0)), Link(10.0), _EveryOther()
        )
        assert ens.vectorization_fallback() == "custom_admission"
        assert ens.admission.admitted_cap(10.0) is None
        assert ens.run(2, 10.0, seed=7).engine == "scalar"

    def test_fallback_counters_metered(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        obs.enable(MetricsRegistry(), Tracer())
        try:
            class Never(AdmissionPolicy):
                def admits(self, admitted, capacity):
                    return False

            EnsembleSimulator(
                BirthDeathProcess(PoissonLoad(8.0)), Link(10.0), Never()
            ).run(3, 10.0, seed=8)
            counters = obs.snapshot()["counters"]
            assert counters["ensemble.fallback.scalar"] == 3
            assert counters["ensemble.fallback.custom_admission"] == 3
        finally:
            obs.disable()

    def test_fallback_matches_vectorized_shape_contract(self):
        # the scalar path must produce the same padded layout the
        # vectorized one does (trajectory() round-trips both)
        proc = RegimeSwitchingProcess([(1.0, PoissonLoad(6.0))], seed=3)
        result = EnsembleSimulator(proc, Link(10.0)).run(2, 12.0, seed=9)
        sim = FlowSimulator(proc, Link(10.0))
        children = spawn_children(9, 2)
        for r in range(2):
            scalar = sim.run(12.0, stream=ReplicationStream(children[r]))
            tr = result.trajectory(r)
            np.testing.assert_array_equal(scalar.trajectory.times, tr.times)
            np.testing.assert_array_equal(scalar.trajectory.census, tr.census)


class TestRunUntil:
    def test_converges_and_matches_run(self):
        ens = small_ensemble()
        utility = AdaptiveUtility()
        estimate = ens.run_until(
            lambda r: r.utility_estimates(utility)[0],
            60.0,
            ci_halfwidth=0.05,
            warmup=10.0,
            seed=12,
            batch_size=4,
            min_replications=4,
            max_replications=64,
        )
        assert estimate.converged
        assert estimate.ci_halfwidth <= 0.05
        # adaptive consumption must replay exactly run(R)'s ensemble
        replay = ens.run(estimate.replications, 60.0, warmup=10.0, seed=12)
        values = replay.utility_estimates(utility)[0]
        assert estimate.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_budget_exhaustion_reported(self):
        estimate = small_ensemble().run_until(
            lambda r: r.mean_census(),
            30.0,
            ci_halfwidth=1e-9,
            seed=13,
            batch_size=4,
            min_replications=4,
            max_replications=8,
        )
        assert not estimate.converged
        assert estimate.replications == 8

    def test_validation_errors(self):
        ens = small_ensemble()
        with pytest.raises(ValueError):
            ens.run_until(lambda r: r.mean_census(), 10.0, ci_halfwidth=0.0)
        with pytest.raises(ValueError):
            ens.run_until(
                lambda r: r.mean_census(), 10.0, ci_halfwidth=0.1, batch_size=0
            )
        with pytest.raises(ValueError):
            ens.run_until(
                lambda r: r.mean_census(),
                10.0,
                ci_halfwidth=0.1,
                min_replications=8,
                max_replications=4,
            )
        with pytest.raises(ValueError, match="one value per replication"):
            ens.run_until(
                lambda r: np.array([1.0]),
                10.0,
                ci_halfwidth=0.1,
                batch_size=4,
                min_replications=4,
                max_replications=8,
            )


class TestPairedGap:
    def test_crn_shares_census_trajectory(self):
        # in the basic model the census dynamics are admission-blind,
        # so CRN pairing makes the BE and RES trajectories identical
        load = PoissonLoad(10.0)
        be = EnsembleSimulator(
            BirthDeathProcess(load), Link(12.0), AdmitAll()
        ).run(6, 40.0, seed=21)
        res = EnsembleSimulator(
            BirthDeathProcess(load),
            Link(12.0),
            ThresholdAdmission(8, readmit_waiting=True),
        ).run(6, 40.0, seed=21)
        np.testing.assert_array_equal(be.times, res.times)
        np.testing.assert_array_equal(be.census, res.census)
        np.testing.assert_array_equal(
            res.admitted, np.minimum(res.census, 8.0)
        )

    def test_gap_matches_analytic_delta(self):
        load = PoissonLoad(10.0)
        utility = AdaptiveUtility()
        model = VariableLoadModel(load, utility)
        capacity = 12.0
        gap = paired_gap(
            BirthDeathProcess(load),
            Link(capacity),
            utility,
            24,
            150.0,
            warmup=25.0,
            seed=31,
        )
        summary = gap.summary()
        analytic = float(model.reservation(capacity)) - float(
            model.best_effort(capacity)
        )
        assert summary["gap"] == pytest.approx(
            analytic, abs=summary["gap_ci"] + 5e-3
        )
        assert summary["gap_ci"] < summary["best_effort_ci"]
        assert gap.gap_mean == summary["gap"]
        assert gap.gap_ci == summary["gap_ci"]

    def test_explicit_policies_respected(self):
        load = PoissonLoad(10.0)
        gap = paired_gap(
            BirthDeathProcess(load),
            Link(12.0),
            AdaptiveUtility(),
            4,
            20.0,
            seed=41,
            reservation=ThresholdAdmission(5),
        )
        assert len(gap.gap) == 4

    def test_refuses_bad_counts(self):
        # the same refusal EnsembleSimulator.run gives, before any
        # simulation (replications=0 used to fail inside numpy)
        args = (BirthDeathProcess(PoissonLoad(10.0)), Link(12.0), AdaptiveUtility())
        for replications in (0, -2):
            with pytest.raises(
                ValueError, match=f"replications must be >= 1, got {replications}"
            ):
                paired_gap(*args, replications, 20.0, seed=1)

    @pytest.mark.parametrize(
        "reservation",
        [None, ThresholdAdmission(5), _EveryOther()],
        ids=["readmit-1", "in_loop-1", "scalar-1"],
    )
    def test_shared_census_equals_two_runs(self, reservation):
        # reading both arms off the reservation run must reproduce the
        # separate best-effort and reservation ensembles bit for bit,
        # with or without a closed form and on either engine
        load = PoissonLoad(10.0)
        utility = AdaptiveUtility()
        policy = (
            reservation
            if reservation is not None
            else ThresholdAdmission.from_utility(utility, readmit_waiting=True)
        )
        gap = paired_gap(
            BirthDeathProcess(load),
            Link(12.0),
            utility,
            5,
            30.0,
            warmup=5.0,
            seed=42,
            reservation=reservation,
        )
        be_run = EnsembleSimulator(
            BirthDeathProcess(load), Link(12.0), AdmitAll()
        ).run(5, 30.0, warmup=5.0, seed=42)
        res_run = EnsembleSimulator(
            BirthDeathProcess(load), Link(12.0), policy
        ).run(5, 30.0, warmup=5.0, seed=42)
        be = be_run.utility_estimates(utility)[0]
        res = res_run.utility_estimates(utility)[1]
        np.testing.assert_array_equal(gap.best_effort, be)
        np.testing.assert_array_equal(gap.reservation, res)
        np.testing.assert_array_equal(gap.gap, res - be)

    def test_stateful_process_arms_share_census(self):
        # a regime modulator is shared across the replications it
        # drives; both arms must still see one census, so a policy that
        # admits everyone scores exactly the best-effort utility
        gap = paired_gap(
            RegimeSwitchingProcess(
                [(1.0, PoissonLoad(6.0)), (1.0, PoissonLoad(12.0))], seed=2
            ),
            Link(12.0),
            AdaptiveUtility(),
            4,
            25.0,
            warmup=3.0,
            seed=11,
            reservation=ThresholdAdmission(float("inf")),
        )
        np.testing.assert_array_equal(gap.reservation, gap.best_effort)
        assert not gap.gap.any()

    @pytest.mark.parametrize(
        "reservation",
        [None, ThresholdAdmission(5)],
        ids=["closed_form", "in_loop"],
    )
    def test_census_simulated_once(self, reservation):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        obs.enable(MetricsRegistry(), Tracer())
        try:
            paired_gap(
                BirthDeathProcess(PoissonLoad(10.0)),
                Link(12.0),
                AdaptiveUtility(),
                4,
                20.0,
                seed=43,
                reservation=reservation,
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        # the reservation run alone serves both arms, closed form or not
        assert counters["ensemble.replications"] == 4


class TestUtilityEstimates:
    def test_best_effort_matches_analytic(self):
        load = PoissonLoad(10.0)
        utility = AdaptiveUtility()
        model = VariableLoadModel(load, utility)
        result = EnsembleSimulator(
            BirthDeathProcess(load), Link(12.0), AdmitAll()
        ).run(24, 150.0, warmup=25.0, seed=61)
        be, res = result.utility_estimates(utility)
        assert be.mean() == pytest.approx(
            float(model.best_effort(12.0)), abs=0.02
        )
        # admit-all: every flow is admitted, so both estimates agree
        np.testing.assert_allclose(res, be, rtol=1e-12)

    def test_lost_calls_cleared_matches_erlang_b(self):
        # Poisson arrivals + exponential holding + threshold C with
        # clearing is M/M/C/C: the pooled blocking fraction must land
        # on the Erlang-B formula
        from repro.models.erlang import erlang_b

        offered, circuits = 5.0, 7
        result = EnsembleSimulator(
            PoissonProcess(offered),
            Link(float(circuits)),
            ThresholdAdmission(circuits),
            lost_calls_cleared=True,
        ).run(16, 300.0, warmup=30.0, seed=71)
        blocking = 1.0 - result.admissions.sum() / result.arrivals.sum()
        assert blocking == pytest.approx(
            erlang_b(circuits, offered), abs=0.015
        )

    def test_lost_calls_cleared_uses_arrival_fraction(self):
        load = PoissonLoad(10.0)
        result = EnsembleSimulator(
            BirthDeathProcess(load),
            Link(12.0),
            ThresholdAdmission(6),
            lost_calls_cleared=True,
        ).run(8, 60.0, warmup=10.0, seed=62)
        assert result.lost_calls_cleared
        _, res = result.utility_estimates(AdaptiveUtility())
        # rejection fraction must bite: strictly below the admitted-only
        # average (threshold 6 under offered mean 10 rejects plenty)
        assert (result.admissions < result.arrivals).all()
        assert np.all(res < 1.0)
