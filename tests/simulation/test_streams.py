"""Tests for the replication stream protocol."""

import numpy as np
import pytest

from repro.loads import PoissonLoad
from repro.simulation import (
    AdmitAll,
    BirthDeathProcess,
    FlowSimulator,
    GeneratorDraws,
    Link,
    ParetoBatchProcess,
    ReplicationStream,
    ThresholdAdmission,
    spawn_children,
    spawn_streams,
)
from repro.simulation.streams import event_layout


class TestSpawn:
    def test_children_deterministic(self):
        a = spawn_children(42, 5)
        b = spawn_children(42, 5)
        assert [c.entropy for c in a] == [c.entropy for c in b]
        assert [c.spawn_key for c in a] == [c.spawn_key for c in b]

    def test_prefix_stable_across_counts(self):
        # child r depends only on (seed, r): growing an ensemble keeps
        # every existing replication's stream
        small = spawn_children(7, 3)
        large = spawn_children(7, 8)
        assert [c.spawn_key for c in small] == [c.spawn_key for c in large[:3]]

    def test_negative_replications_rejected(self):
        with pytest.raises(ValueError):
            spawn_children(1, -1)

    def test_spawn_streams_counts(self):
        streams = spawn_streams(3, 4, block=64)
        assert len(streams) == 4
        assert all(s.block == 64 for s in streams)


class TestEventLayout:
    def test_admission_independent(self):
        # CRN pairing requires both architectures to consume identical
        # draws, so the layout may depend only on the process
        proc = BirthDeathProcess(PoissonLoad(5.0))
        layouts = {
            tuple(sorted(event_layout(proc, adm).items()))
            for adm in (
                AdmitAll(),
                ThresholdAdmission(3),
                ThresholdAdmission(3, readmit_waiting=True),
            )
        }
        assert len(layouts) == 1

    def test_unit_batch_layout(self):
        layout = event_layout(BirthDeathProcess(PoissonLoad(5.0)), AdmitAll())
        assert layout["uniforms"] == 3
        assert layout["batch_slot"] is None
        assert layout["promote_slot"] == 2

    def test_batch_process_layout(self):
        layout = event_layout(ParetoBatchProcess(2.0), AdmitAll())
        assert layout["uniforms"] == 4
        assert layout["batch_slot"] == 3


class TestReplicationStream:
    def test_requires_bind(self):
        stream = ReplicationStream(1)
        with pytest.raises(RuntimeError, match="bind"):
            stream.waiting_time(1.0)

    def test_rebind_after_start_rejected(self):
        proc = BirthDeathProcess(PoissonLoad(5.0))
        stream = ReplicationStream(1)
        stream.bind(proc, AdmitAll())
        stream.waiting_time(1.0)
        with pytest.raises(RuntimeError, match="single-use"):
            stream.bind(ParetoBatchProcess(2.0), AdmitAll())

    def test_rebind_same_layout_allowed(self):
        proc = BirthDeathProcess(PoissonLoad(5.0))
        stream = ReplicationStream(1)
        stream.bind(proc, AdmitAll())
        stream.waiting_time(1.0)
        stream.bind(proc, ThresholdAdmission(3))  # same layout: fine

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            ReplicationStream(1, block=0)

    def test_waiting_time_matches_raw_generator(self):
        # the stream must serve the generator's own standard
        # exponentials, scaled exactly as z * (1/total)
        child = spawn_children(9, 1)[0]
        stream = ReplicationStream(child, block=8)
        stream.bind(BirthDeathProcess(PoissonLoad(5.0)), AdmitAll())
        raw = np.random.default_rng(child).standard_exponential(8)
        got = [stream.waiting_time(2.0) for _ in range(8)]
        np.testing.assert_array_equal(got, raw * (1.0 / 2.0))

    def test_pick_in_range_and_deterministic(self):
        child = spawn_children(9, 1)[0]
        stream = ReplicationStream(child, block=8)
        stream.bind(BirthDeathProcess(PoissonLoad(5.0)), AdmitAll())
        stream.waiting_time(1.0)
        stream.classify(1.0)
        for n in (1, 2, 1000):
            assert 0 <= stream.pick(n) < n
            assert 0 <= stream.promote_pick(n) < n


class TestGeneratorDraws:
    def test_matches_legacy_sequence(self):
        # GeneratorDraws must reproduce the historical per-call RNG
        # usage bit for bit, so pre-stream seeds stay valid
        draws = GeneratorDraws(np.random.default_rng(5))
        ref = np.random.default_rng(5)
        assert draws.waiting_time(3.0) == ref.exponential(1.0 / 3.0)
        assert draws.classify(3.0) == ref.random() * 3.0
        assert draws.pick(7) == int(ref.integers(7))

    def test_seeded_run_unchanged_by_stream_refactor(self):
        # two identically seeded runs stay identical (regression guard
        # for the draw-source indirection in FlowSimulator.run)
        sim = FlowSimulator(
            BirthDeathProcess(PoissonLoad(8.0)), Link(10.0), ThresholdAdmission(7)
        )
        r1 = sim.run(30.0, seed=77)
        r2 = sim.run(30.0, seed=77)
        np.testing.assert_array_equal(r1.trajectory.times, r2.trajectory.times)


class TestBlockSource:
    def test_bitwise_match_with_scalar_streams(self):
        # a block from next_block must hold the values the same child's
        # stream serves the scalar engine, in the same event order, and
        # come off the generator as exponentials then uniforms
        proc = BirthDeathProcess(PoissonLoad(5.0))
        for child in spawn_children(3, 4):
            source = ReplicationStream(child, block=16)
            source.bind(proc, AdmitAll())
            exp, uni = source.next_block()
            uniforms = event_layout(proc, AdmitAll())["uniforms"]
            assert exp.shape == (16,) and uni.shape == (16 * uniforms,)
            raw = np.random.default_rng(child)
            np.testing.assert_array_equal(exp, raw.standard_exponential(16))
            np.testing.assert_array_equal(uni, raw.random(16 * uniforms))
            stream = ReplicationStream(child, block=16)
            stream.bind(proc, AdmitAll())
            for event in range(16):
                assert stream.waiting_time(1.0) == exp[event]
                assert stream.classify(1.0) == uni[event * uniforms]
            # the next event starts the next block on both sides
            assert stream.waiting_time(1.0) == source.next_block()[0][0]

    def test_next_block_requires_bind(self):
        with pytest.raises(RuntimeError, match="bind"):
            ReplicationStream(1).next_block()
