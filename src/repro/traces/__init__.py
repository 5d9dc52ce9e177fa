"""Trace-driven workload subsystem.

Three layers turn the one-shot round engine into a *served* system:

* :mod:`repro.traces.models` — seeded round-arrival traces (Poisson,
  diurnal, Markov-modulated bursts), per-client availability traces
  (session/churn with day-night participation), and a CSV/JSONL loader
  for external traces — all replaying byte-identically from a seed;
* :mod:`repro.traces.replay` — the arrival-driven serving loop:
  :class:`TraceReplayEngine` admits rounds as trace events fire,
  overlaps them on one shared fabric with bounded admission queues and
  warm-pool reuse, samples participants from the availability trace, and
  can correlate dropout chaos with availability dips;
* :mod:`repro.traces.slo` — fixed-memory streaming latency percentiles
  (p50/p95/p99), queue-wait vs service-time breakdown, and
  SLO-attainment accounting; summarize recorded campaigns with
  ``python -m repro.traces.report``;
* :mod:`repro.traces.shard` — multi-core sharded replay:
  :class:`ShardedReplayEngine` partitions a replay's tenants across
  forked worker processes (each shard a full serving cell) and merges
  the per-shard SLO digests exactly.
"""

from repro.traces.models import (
    AvailabilityTrace,
    Trace,
    TraceEvent,
    availability_trace,
    diurnal_trace,
    load_trace,
    merge_traces,
    mmpp_trace,
    poisson_trace,
    save_trace,
)
from repro.traces.replay import (
    ChaosCorrelation,
    ReplayConfig,
    ReplayResult,
    ReplaySpec,
    RoundRecord,
    TraceReplayEngine,
)
from repro.traces.shard import (
    ShardedReplayEngine,
    ShardedReplayResult,
    ShardPlan,
    ShardReport,
    plan_shards,
    split_trace,
)
from repro.traces.slo import LatencyDigest, SloTracker

__all__ = [
    "AvailabilityTrace",
    "ChaosCorrelation",
    "LatencyDigest",
    "ReplayConfig",
    "ReplayResult",
    "ReplaySpec",
    "RoundRecord",
    "ShardPlan",
    "ShardReport",
    "ShardedReplayEngine",
    "ShardedReplayResult",
    "SloTracker",
    "Trace",
    "TraceEvent",
    "TraceReplayEngine",
    "availability_trace",
    "diurnal_trace",
    "load_trace",
    "merge_traces",
    "mmpp_trace",
    "plan_shards",
    "poisson_trace",
    "save_trace",
    "split_trace",
]
