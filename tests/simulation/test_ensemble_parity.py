"""Property tests: ensemble trajectories == scalar-stream trajectories.

The ensemble engine's whole contract is that vectorization changes
*nothing*: replication ``r`` of an ensemble is event-for-event
identical to ``FlowSimulator.run(stream=...)`` on seed child ``r``.
These hypothesis tests drive both engines over randomly drawn
configurations (process family, admission policy, retry/readmit/
clearing modes, horizons, warmups, seeds) and require bitwise-equal
trajectories and window counters every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, SimulationBudgetError
from repro.loads import PoissonLoad
from repro.simulation import (
    AdmissionPolicy,
    AdmitAll,
    BirthDeathProcess,
    EnsembleSimulator,
    FlowSimulator,
    Link,
    ParetoBatchProcess,
    PoissonProcess,
    ReplicationStream,
    ThresholdAdmission,
    spawn_children,
)
from repro.utility import AdaptiveUtility

CAPACITY = 10.0


def _process(name):
    if name == "bd":
        return BirthDeathProcess(PoissonLoad(8.0))
    if name == "poisson":
        return PoissonProcess(7.0)
    return ParetoBatchProcess(3.0, shape=1.7)


def _policy(name):
    if name == "admit_all":
        return AdmitAll()
    if name == "threshold":
        return ThresholdAdmission(6)
    if name == "readmit_fractional":
        # M = min(N, ceil(6.5)) = min(N, 7)
        return ThresholdAdmission(6.5, readmit_waiting=True)
    if name == "readmit_zero":
        return ThresholdAdmission(0, readmit_waiting=True)
    if name == "no_threshold":
        # M = N without readmission: census-only like admit-all
        return ThresholdAdmission(float("inf"))
    return ThresholdAdmission(6, readmit_waiting=True)


POLICIES = [
    "admit_all",
    "threshold",
    "readmit",
    "readmit_fractional",
    "readmit_zero",
    "no_threshold",
]

#: Warmup is either 0 (the t = 0 population counts as arriving) or
#: strictly inside the shortest drawn horizon.
WARMUPS = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=1.9))


def _assert_parity(
    process, admission, *, horizon, seed, reps, warmup=0.0, **kwargs
):
    ensemble = EnsembleSimulator(process, Link(CAPACITY), admission, **kwargs)
    result = ensemble.run(reps, horizon, warmup=warmup, seed=seed)
    assert result.engine == "vectorized"
    scalar = FlowSimulator(process, Link(CAPACITY), admission, **kwargs)
    for r, child in enumerate(spawn_children(seed, reps)):
        run = scalar.run(
            horizon, warmup=warmup, stream=ReplicationStream(child)
        )
        trajectory = result.trajectory(r)
        np.testing.assert_array_equal(run.trajectory.times, trajectory.times)
        np.testing.assert_array_equal(run.trajectory.census, trajectory.census)
        np.testing.assert_array_equal(
            run.trajectory.admitted, trajectory.admitted
        )
        assert run.events == result.events[r]
        # window counters from the flow records, as the scalar
        # fallback engine counts them
        flows = run.flows
        in_window = flows.arrival >= warmup
        on_arrival = (~np.isnan(flows.admit_time)) & (
            flows.admit_time == flows.arrival
        )
        assert result.arrivals[r] == int(in_window.sum())
        assert result.admissions[r] == int((in_window & on_arrival).sum())


class TestTrajectoryParity:
    @given(
        process=st.sampled_from(["bd", "poisson", "pareto"]),
        policy=st.sampled_from(POLICIES),
        horizon=st.floats(min_value=2.0, max_value=30.0),
        warmup=WARMUPS,
        seed=st.integers(min_value=0, max_value=2**31),
        reps=st.integers(min_value=1, max_value=5),
    )
    # about 8 draws per policy
    @settings(max_examples=50, deadline=None)
    def test_all_processes_and_policies(
        self, process, policy, horizon, warmup, seed, reps
    ):
        _assert_parity(
            _process(process),
            _policy(policy),
            horizon=horizon,
            seed=seed,
            reps=reps,
            warmup=warmup,
        )

    @pytest.mark.parametrize("warmup", [0.0, 1.5])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("process", ["bd", "poisson", "pareto"])
    def test_every_process_policy_and_warmup(self, process, policy, warmup):
        # the closed-form policies skip in-loop M tracking, so every
        # combination is pinned, not only the ones hypothesis draws
        _assert_parity(
            _process(process),
            _policy(policy),
            horizon=12.0,
            seed=2024,
            reps=3,
            warmup=warmup,
        )

    @given(
        retry_rate=st.floats(min_value=0.05, max_value=1.0),
        policy=st.sampled_from(["admit_all", "threshold", "readmit"]),
        horizon=st.floats(min_value=2.0, max_value=25.0),
        warmup=WARMUPS,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # about 10 draws per policy: the finite threshold is the one case
    # whose retries both fire and admit, so it must not be starved
    @settings(max_examples=30, deadline=None)
    def test_retry_dynamics(self, retry_rate, policy, horizon, warmup, seed):
        _assert_parity(
            BirthDeathProcess(PoissonLoad(8.0)),
            _policy(policy),
            horizon=horizon,
            seed=seed,
            reps=3,
            warmup=warmup,
            retry_rate=retry_rate,
        )

    @given(
        process=st.sampled_from(["bd", "pareto"]),
        policy=st.sampled_from(["admit_all", "threshold"]),
        horizon=st.floats(min_value=2.0, max_value=25.0),
        warmup=WARMUPS,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # about 10 draws per policy
    @settings(max_examples=20, deadline=None)
    def test_lost_calls_cleared(self, process, policy, horizon, warmup, seed):
        _assert_parity(
            _process(process),
            _policy(policy),
            horizon=horizon,
            seed=seed,
            reps=3,
            warmup=warmup,
            lost_calls_cleared=True,
        )

    @pytest.mark.parametrize("process", ["bd", "poisson"])
    def test_admit_all_with_clearing_unit_births(self, process):
        # unit-batch births under admit-all clearing used to index the
        # scalar admitted-batch size as an array and raise TypeError
        _assert_parity(
            _process(process),
            AdmitAll(),
            horizon=15.0,
            seed=7,
            reps=3,
            warmup=2.0,
            lost_calls_cleared=True,
        )

    @given(
        block=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=10, deadline=None)
    def test_parity_holds_at_any_block_size(self, block, seed):
        # block size sets the refill cadence (and therefore the draw
        # values), so both engines must agree at *every* block size,
        # including tiny ones that force refills mid-run
        process = BirthDeathProcess(PoissonLoad(8.0))
        result = EnsembleSimulator(process, Link(CAPACITY), block=block).run(
            3, 15.0, seed=seed
        )
        scalar = FlowSimulator(process, Link(CAPACITY))
        for r, child in enumerate(spawn_children(seed, 3)):
            run = scalar.run(
                15.0, stream=ReplicationStream(child, block=block)
            )
            trajectory = result.trajectory(r)
            np.testing.assert_array_equal(
                run.trajectory.times, trajectory.times
            )
            np.testing.assert_array_equal(
                run.trajectory.census, trajectory.census
            )


class _CountingPoisson(PoissonProcess):
    """Poisson demand that counts its vector rate calls."""

    def __init__(self, rate):
        super().__init__(rate)
        self.rate_calls = 0

    def arrival_rates(self, census):
        self.rate_calls += 1
        return super().arrival_rates(census)


class TestRateTables:
    """The walk reads its rates from tables indexed by census; they are
    regrown at a block's start whenever the census could outrun them
    within the block.  Each run here must match the scalar twin event
    for event."""

    @staticmethod
    def _assert_block_parity(process, *, block, initial_census, horizon, seed):
        result = EnsembleSimulator(process, Link(CAPACITY), block=block).run(
            4, horizon, seed=seed, initial_census=initial_census
        )
        assert result.engine == "vectorized"
        scalar = FlowSimulator(process, Link(CAPACITY))
        for r, child in enumerate(spawn_children(seed, 4)):
            run = scalar.run(
                horizon,
                stream=ReplicationStream(child, block=block),
                initial_census=initial_census,
            )
            trajectory = result.trajectory(r)
            np.testing.assert_array_equal(run.trajectory.times, trajectory.times)
            np.testing.assert_array_equal(run.trajectory.census, trajectory.census)
            np.testing.assert_array_equal(run.trajectory.admitted, trajectory.admitted)
            assert run.events == result.events[r]
        return result

    @pytest.mark.parametrize("process", ["bd", "poisson"])
    def test_small_block_refills_and_grows_the_tables(self, process):
        # a 3-step block from an empty link: every block may regrow
        self._assert_block_parity(
            _process(process), block=3, initial_census=0, horizon=12.0, seed=11
        )

    def test_pure_births_meet_the_growth_bound(self):
        # with (almost) no departures every step is a birth, so the
        # census reaches census.max() + block exactly at each block's end
        process = PoissonProcess(5.0, mu=1e-12)
        result = self._assert_block_parity(
            process, block=3, initial_census=0, horizon=12.0, seed=17
        )
        assert np.all(np.diff(result.census[0, : result.counts[0]]) == 1)

    def test_poisson_far_below_its_mean(self):
        # the census climbs from 0 to ~60, past the first table's reach
        process = _CountingPoisson(60.0)
        result = self._assert_block_parity(
            process, block=8, initial_census=0, horizon=6.0, seed=5
        )
        # the tables were rebuilt a few times, not once per step (the
        # scalar twin asks the scalar arrival_rate)
        assert 1 < process.rate_calls < int(result.events.max()) // 8

    def test_batch_arrivals_past_the_tables(self):
        # a 4-event block's tables reach census 2 (N + 4) from its start;
        # heavy Pareto batches jump past that mid-block
        self._assert_block_parity(
            ParetoBatchProcess(2.0, shape=1.2),
            block=4,
            initial_census=0,
            horizon=10.0,
            seed=1,
        )

    def test_birth_death_above_its_census_cap(self):
        # births are zero past the reflecting cap, so the census drains
        process = BirthDeathProcess(PoissonLoad(8.0), census_cap=12)
        self._assert_block_parity(
            process, block=16, initial_census=40, horizon=8.0, seed=3
        )


class _EveryOther(AdmissionPolicy):
    """A custom policy: the ensemble runs it on the scalar fallback."""

    def admits(self, admitted, capacity):
        return admitted % 2 == 0


#: One policy per engine path: the census-only walk, the walk that
#: carries M, and the scalar fallback.
ENGINE_POLICIES = {
    "census_only": AdmitAll,
    "tracked": lambda: ThresholdAdmission(3),
    "scalar": _EveryOther,
}


class TestWalkBoundaries:
    """Where a walk stops: absorption, the event budget, the horizon."""

    @pytest.mark.parametrize("engine", sorted(ENGINE_POLICIES))
    def test_absorbed_census_raises(self, engine):
        # no births at all (the reflecting cap sits at 0), so the census
        # drains from 5 to 0, where the total rate is zero
        process = BirthDeathProcess(PoissonLoad(8.0), census_cap=0)
        ensemble = EnsembleSimulator(
            process, Link(CAPACITY), ENGINE_POLICIES[engine]()
        )
        with pytest.raises(ModelError, match="absorbed at census 0"):
            ensemble.run(3, 1000.0, seed=4, initial_census=5)
        # the scalar twin refuses the same path
        with pytest.raises(ModelError, match="absorbed at census 0"):
            FlowSimulator(process, Link(CAPACITY)).run(
                1000.0,
                stream=ReplicationStream(spawn_children(4, 1)[0]),
                initial_census=5,
            )

    def test_absorption_past_the_horizon_is_not_reached(self):
        # the walk reaches census 0 inside its first block, but every
        # replication's draining departures land past the horizon
        process = BirthDeathProcess(PoissonLoad(8.0), census_cap=0)
        result = EnsembleSimulator(process, Link(CAPACITY)).run(
            4, 0.3, seed=1, initial_census=3
        )
        scalar = FlowSimulator(process, Link(CAPACITY))
        for r, child in enumerate(spawn_children(1, 4)):
            run = scalar.run(
                0.3, stream=ReplicationStream(child), initial_census=3
            )
            np.testing.assert_array_equal(
                run.trajectory.census, result.trajectory(r).census
            )
        assert result.census[np.arange(4), result.counts - 1].min() > 0

    @pytest.mark.parametrize("engine", sorted(ENGINE_POLICIES))
    def test_max_events_boundary(self, engine):
        # a run needing exactly E events (its busiest replication's
        # count) passes at max_events=E and is refused at E - 1
        ensemble = EnsembleSimulator(
            BirthDeathProcess(PoissonLoad(8.0)),
            Link(CAPACITY),
            ENGINE_POLICIES[engine](),
        )
        first = ensemble.run(3, 20.0, seed=6)
        assert first.engine == ("scalar" if engine == "scalar" else "vectorized")
        needed = int(first.events.max())
        again = ensemble.run(3, 20.0, seed=6, max_events=needed)
        np.testing.assert_array_equal(again.times, first.times)
        with pytest.raises(SimulationBudgetError) as excinfo:
            ensemble.run(3, 20.0, seed=6, max_events=needed - 1)
        err = excinfo.value
        assert err.events == needed - 1
        assert 0.0 < err.reached_t < err.horizon == 20.0

    @pytest.mark.parametrize("engine", ["census_only", "tracked"])
    def test_replications_without_events_beside_ones_that_step(self, engine):
        # from an empty link the first waiting time is Exp(1), so at a
        # horizon of 0.7 about half the replications never step
        process, horizon, seed = PoissonProcess(1.0), 0.7, 21
        result = EnsembleSimulator(
            process, Link(CAPACITY), ENGINE_POLICIES[engine]()
        ).run(8, horizon, seed=seed, initial_census=0)
        assert result.engine == "vectorized"
        assert (result.events == 0).any() and (result.events > 0).any()
        scalar = FlowSimulator(process, Link(CAPACITY), ENGINE_POLICIES[engine]())
        for r, child in enumerate(spawn_children(seed, 8)):
            run = scalar.run(
                horizon, stream=ReplicationStream(child), initial_census=0
            )
            trajectory = result.trajectory(r)
            np.testing.assert_array_equal(run.trajectory.times, trajectory.times)
            np.testing.assert_array_equal(run.trajectory.census, trajectory.census)
            np.testing.assert_array_equal(
                run.trajectory.admitted, trajectory.admitted
            )
            assert result.arrivals[r] == len(run.flows)
        padded = result.events == 0
        assert (result.times[padded, 1:] == horizon).all()
        assert (result.census[padded, 1:] == 0.0).all()


class TestLongRunParity:
    """Parity over tens of default-size blocks, not just the first.

    The property tests above run horizons of at most 30 at a census of
    about 8, which mostly stay inside one 512-event block."""

    @staticmethod
    def _assert_rows(result, scalar, children, rows, horizon, warmup):
        for r in rows:
            run = scalar.run(
                horizon, warmup=warmup, stream=ReplicationStream(children[r])
            )
            trajectory = result.trajectory(r)
            np.testing.assert_array_equal(run.trajectory.times, trajectory.times)
            np.testing.assert_array_equal(run.trajectory.census, trajectory.census)
            np.testing.assert_array_equal(
                run.trajectory.admitted, trajectory.admitted
            )
            assert run.events == result.events[r]

    def test_s1_children(self):
        # experiment S1's ensemble: 32 children of seed 2025 to t = 400
        utility = AdaptiveUtility()
        process = BirthDeathProcess(PoissonLoad(50.0))
        policy = ThresholdAdmission.from_utility(utility, readmit_waiting=True)
        result = EnsembleSimulator(process, Link(55.0), policy).run(
            32, 400.0, warmup=50.0, seed=2025
        )
        assert result.engine == "vectorized"
        assert int(result.events.min()) > 64 * 512
        self._assert_rows(
            result,
            FlowSimulator(process, Link(55.0), policy),
            spawn_children(2025, 32),
            (0, 15, 31),
            400.0,
            50.0,
        )

    def test_threshold_with_retries(self):
        # M is carried through every event: a finite threshold without
        # readmission whose waiting flows retry
        process = BirthDeathProcess(PoissonLoad(50.0))
        policy = ThresholdAdmission(48)
        result = EnsembleSimulator(
            process, Link(55.0), policy, retry_rate=0.2
        ).run(3, 150.0, warmup=20.0, seed=77)
        assert int(result.events.min()) > 20 * 512
        assert (result.admitted < result.census).any()
        self._assert_rows(
            result,
            FlowSimulator(process, Link(55.0), policy, retry_rate=0.2),
            spawn_children(77, 3),
            (0, 1, 2),
            150.0,
            20.0,
        )
