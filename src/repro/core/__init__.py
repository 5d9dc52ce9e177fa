"""The aggregation platform: LIFL and its baselines, end to end.

This package ties the substrates together into runnable systems:

* :mod:`repro.core.updates` / :mod:`repro.core.results` — the data moving
  through a round and what a round produces;
* :mod:`repro.core.aggregator` — the step-based Recv/Agg/Send aggregator
  (Fig. 14 / Appendix G) as a simulation process, with eager and lazy
  aggregation timing;
* :mod:`repro.core.roundsim` — the round engine: ingress (gateway or
  broker), aggregation tree execution, transfers, cold starts, CPU
  accounting;
* :mod:`repro.core.platform` — :class:`PlatformConfig` presets for LIFL,
  the serverful (SF) and serverless (SL) baselines, and Fig. 8's SL-H;
* :mod:`repro.core.rounds` — the multi-round FL workload driver behind
  Figs. 9 and 10.
"""

from repro.core.aggregator import AggregatorInstance, InstanceState
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.results import InstanceStats, RoundResult, WorkloadResult
from repro.core.rounds import FLWorkloadConfig, run_fl_workload
from repro.core.roundsim import RoundEngine
from repro.core.updates import SimUpdate

__all__ = [
    "AggregationPlatform",
    "AggregatorInstance",
    "FLWorkloadConfig",
    "InstanceState",
    "InstanceStats",
    "PlatformConfig",
    "RoundEngine",
    "RoundResult",
    "SimUpdate",
    "WorkloadResult",
    "run_fl_workload",
]
