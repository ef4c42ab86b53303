"""Flow traces: record, persist, stream, and analyse what operators observe.

- :class:`FlowTrace` — per-flow arrival/departure records, extractable
  from any simulation run; CSV persistence via :func:`write_trace` /
  :func:`read_trace`, views of the chunked CSV writer and reader.
- census derivation — exact trajectory, point queries, time-uniform
  samples (:mod:`repro.traces.census`).
- :func:`analyze_trace` — trace -> census identification ->
  architecture verdict, the full paper as a pipeline.
- streaming (:mod:`repro.traces.stream`) — :class:`TraceStream` chunked
  ingestion at constant memory: chunked CSV/npz persistence, streaming
  census queries, :func:`materialize`.
- workloads (:mod:`repro.traces.workloads`) — seeded synthetic
  generators (Poisson, diurnal, bursty, batch) emitting streams.
- replay (:mod:`repro.traces.replay`) — :func:`replay_stream` /
  :func:`replay_trace` drive CRN-paired best-effort vs reservation
  estimates (with Welford CIs) from any arrival-sorted stream.
"""

from repro.traces.census import (
    census_at,
    census_samples,
    census_trajectory,
    mean_census,
)
from repro.traces.format import FlowTrace
from repro.traces.pipeline import analyze_trace
from repro.traces.replay import (
    DEFAULT_WINDOWS,
    MAX_WINDOWS,
    ReplayResult,
    TraceOccupancy,
    replay_stream,
    replay_trace,
    sweep_occupancy,
)
from repro.traces.stream import (
    DEFAULT_CHUNK_FLOWS,
    SEGMENT_SCHEMA,
    TraceChunk,
    TraceStream,
    materialize,
    open_trace,
    open_trace_csv,
    open_trace_npz,
    read_trace,
    stream_census_at,
    stream_census_samples,
    stream_mean_census,
    stream_trace,
    write_trace,
    write_trace_csv,
    write_trace_npz,
)
from repro.traces.workloads import (
    WORKLOADS,
    BatchWorkload,
    BurstyWorkload,
    DiurnalWorkload,
    PoissonWorkload,
    Workload,
    default_workload,
)

__all__ = [
    "DEFAULT_CHUNK_FLOWS",
    "DEFAULT_WINDOWS",
    "MAX_WINDOWS",
    "SEGMENT_SCHEMA",
    "WORKLOADS",
    "BatchWorkload",
    "BurstyWorkload",
    "DiurnalWorkload",
    "FlowTrace",
    "PoissonWorkload",
    "ReplayResult",
    "TraceChunk",
    "TraceOccupancy",
    "TraceStream",
    "Workload",
    "analyze_trace",
    "census_at",
    "census_samples",
    "census_trajectory",
    "default_workload",
    "materialize",
    "mean_census",
    "open_trace",
    "open_trace_csv",
    "open_trace_npz",
    "read_trace",
    "replay_stream",
    "replay_trace",
    "stream_census_at",
    "stream_census_samples",
    "stream_mean_census",
    "stream_trace",
    "sweep_occupancy",
    "write_trace",
    "write_trace_csv",
    "write_trace_npz",
]
