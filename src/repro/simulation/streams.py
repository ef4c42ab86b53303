"""Replication randomness: draw protocols shared by both engines.

The scalar :class:`~repro.simulation.simulator.FlowSimulator` and the
:mod:`~repro.simulation.ensemble` engine must be able to
consume *exactly the same* random numbers so that an ensemble
replication is event-for-event identical to a scalar run — that is the
parity oracle the ensemble's speedup is verified against, and the
mechanism behind common-random-number (CRN) pairing.

Two draw sources implement one engine-facing protocol:

- :class:`GeneratorDraws` wraps a ``numpy.random.Generator`` with the
  simulator's historical draw sequence (``exponential``, ``random``,
  ``integers``), so seeded runs reproduce pre-stream trajectories
  bit-for-bit.
- :class:`ReplicationStream` serves draws from fixed-size blocks with
  a *constant per-event layout*: every event consumes one standard
  exponential plus ``U`` uniforms (classification, pick, optional
  batch size, optional promotion pick), whether or not each slot is
  used.  :meth:`ReplicationStream.next_block` is the one block source:
  the scalar engine pops its draws from it one event at a time, the
  ensemble engine walks a whole block of events per call.

Streams are seeded through :class:`numpy.random.SeedSequence` children
(``SeedSequence(seed).spawn(R)``), so an ensemble is reproducible for
any replication count and embarrassingly parallel: worker ``w`` can
rebuild exactly its slice of streams from the root seed alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]

#: Draws buffered per refill: one generator call per ``DEFAULT_BLOCK``
#: events amortises RNG overhead without hoarding memory.
DEFAULT_BLOCK = 512


def spawn_children(
    seed: SeedLike, replications: int
) -> List[np.random.SeedSequence]:
    """Independent per-replication seed children of one root seed.

    ``SeedSequence.spawn`` is deterministic: child ``r`` depends only
    on ``(seed, r)``, so any worker process can reconstruct its slice
    of an ensemble's streams from the root seed.
    """
    if replications < 0:
        raise ValueError(f"replications must be >= 0, got {replications!r}")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return root.spawn(replications)


def spawn_streams(
    seed: SeedLike, replications: int, *, block: int = DEFAULT_BLOCK
) -> List["ReplicationStream"]:
    """One :class:`ReplicationStream` per replication from a root seed."""
    return [
        ReplicationStream(child, block=block)
        for child in spawn_children(seed, replications)
    ]


def event_layout(process, admission) -> dict:
    """The per-event draw layout for a (process, admission) pair.

    Slot 0 is the event-type classification uniform, slot 1 the
    departure/retry pick, slot 2 the promotion pick (reserved whether
    or not the admission policy readmits), and slot 3 the batch-size
    draw for batch-arrival processes.  The layout deliberately depends
    only on the *process*: two runs of the same demand under different
    admission policies then consume identical draws, so CRN-paired
    best-effort/reservation ensembles share their census trajectory
    exactly in the paper's basic model.
    """
    del admission  # layout is admission-independent by design (CRN)
    uses_batch = bool(getattr(process, "uses_batch_draw", False))
    return {
        "uniforms": 3 + int(uses_batch),
        "batch_slot": 3 if uses_batch else None,
        "promote_slot": 2,
    }


class GeneratorDraws:
    """Legacy draw source: the simulator's historical RNG sequence.

    ``waiting_time`` consumes one ``Generator.exponential`` draw,
    ``classify`` one ``Generator.random`` and the picks one bounded
    ``Generator.integers`` each — exactly the calls (and therefore the
    bit stream) the pre-ensemble engine made, so existing seeds keep
    producing identical trajectories.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def bind(self, process, admission) -> None:
        """No-op: the legacy source draws lazily, per use."""

    def waiting_time(self, total: float) -> float:
        return float(self._rng.exponential(1.0 / total))

    def classify(self, total: float) -> float:
        return float(self._rng.random()) * total

    def pick(self, n: int) -> int:
        return int(self._rng.integers(n))

    def batch(self, process) -> int:
        return int(process.batch_size(self._rng))

    def promote_pick(self, n: int) -> int:
        return int(self._rng.integers(n))


class ReplicationStream:
    """Block-buffered draw source with a constant per-event layout.

    The underlying generator is consumed in a deterministic block
    order — a block of standard exponentials, then a block of event
    uniforms, repeating (:meth:`next_block`) — so the ensemble engine,
    which walks whole blocks, reads the very same values this stream
    serves the scalar engine one event at a time.

    A stream is single-use: it must be bound to one (process,
    admission) configuration before the first draw and feeds exactly
    one run.
    """

    def __init__(self, seed: SeedLike, *, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block!r}")
        self.seed_sequence = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._gen = np.random.default_rng(self.seed_sequence)
        self._block = int(block)
        self._exp_buf: Optional[np.ndarray] = None
        self._exp_ptr = 0
        self._uni_buf: Optional[np.ndarray] = None
        self._uni_ptr = 0
        self._uniforms_per_event = 0
        self._batch_slot: Optional[int] = None
        self._promote_slot: Optional[int] = None
        self._event: Optional[np.ndarray] = None
        self._bound = False
        self._started = False

    @property
    def block(self) -> int:
        """Draws buffered per refill."""
        return self._block

    def bind(self, process, admission) -> None:
        """Fix the per-event draw layout for one (process, admission).

        Binding twice with a different layout would silently desync the
        stream from its ensemble twin, so rebinding a started stream is
        an error.
        """
        layout = event_layout(process, admission)
        if self._started and layout["uniforms"] != self._uniforms_per_event:
            raise RuntimeError(
                "ReplicationStream already consumed draws under a different "
                "event layout; streams are single-use"
            )
        self._uniforms_per_event = layout["uniforms"]
        self._batch_slot = layout["batch_slot"]
        self._promote_slot = layout["promote_slot"]
        self._bound = True

    def next_block(self) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``block`` events' draws: ``(exponentials, uniforms)``.

        ``block`` standard exponentials, then ``block * U`` uniforms
        (event ``i``'s slots are ``uniforms[i*U : (i+1)*U]``), drawn in
        that order from the generator.
        """
        if not self._bound:
            raise RuntimeError("ReplicationStream.bind must be called before use")
        self._started = True
        exp = self._gen.standard_exponential(self._block)
        return exp, self._gen.random(self._block * self._uniforms_per_event)

    def waiting_time(self, total: float) -> float:
        """One standard-exponential draw scaled to the current rate."""
        if self._exp_buf is None or self._exp_ptr >= self._exp_buf.size:
            self._exp_buf, self._uni_buf = self.next_block()
            self._exp_ptr = self._uni_ptr = 0
        z = self._exp_buf[self._exp_ptr]
        self._exp_ptr += 1
        return float(z) * (1.0 / total)

    def classify(self, total: float) -> float:
        """Pop this event's uniform slots; return the type draw.

        The slots come from the block :meth:`waiting_time` drew for this
        event.
        """
        end = self._uni_ptr + self._uniforms_per_event
        self._event = self._uni_buf[self._uni_ptr : end]
        self._uni_ptr = end
        return float(self._event[0]) * total

    def pick(self, n: int) -> int:
        """Uniform index in ``[0, n)`` from this event's pick slot."""
        return min(int(float(self._event[1]) * n), n - 1)

    def batch(self, process) -> int:
        """Arrival batch size from this event's batch slot."""
        if self._batch_slot is None:
            return 1
        return int(process.batch_from_uniform(float(self._event[self._batch_slot])))

    def promote_pick(self, n: int) -> int:
        """Uniform index in ``[0, n)`` from this event's promotion slot."""
        u = float(self._event[self._promote_slot])
        return min(int(u * n), n - 1)
