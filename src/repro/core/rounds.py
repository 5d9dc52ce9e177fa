"""Multi-round FL workload driver (behind Figs. 9 and 10).

Round r: publish global model v_r → the selector picks participants from
the population → clients hibernate/train per their behaviour profile →
updates arrive at the aggregation service → the platform aggregates the
first ``aggregation_goal`` arrivals (over-provisioned selection absorbs
stragglers and dropouts, §3) → evaluation → round r+1.

Rounds run back-to-back, so wall-clock time is the sum of round completion
times, and the always-on SF reservation accrues continuously.  Accuracy per
round comes from the model's learning curve — identical across systems, as
in the paper (same FedAvg on the same population); the systems differ in
seconds and CPU-seconds per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.core.platform import AggregationPlatform
from repro.core.results import RoundSample, WorkloadResult
from repro.fl.convergence import AccuracyCurve
from repro.fl.model import ModelSpec
from repro.fl.selector import Selector, SelectorConfig
from repro.workloads.arrival import generate_round_trace
from repro.workloads.fedscale import FedScalePopulation


@dataclass(frozen=True)
class FLWorkloadConfig:
    """One §6.2 workload setup."""

    spec: ModelSpec
    curve: AccuracyCurve
    aggregation_goal: int
    active_clients: int
    rounds: int
    target_accuracy: float = 0.70
    stop_at_target: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.aggregation_goal < 1:
            raise ConfigError("aggregation_goal must be >= 1")
        if self.active_clients < self.aggregation_goal:
            raise ConfigError("active_clients must be >= aggregation_goal")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")


def run_fl_workload(
    platform: AggregationPlatform,
    population: FedScalePopulation,
    config: FLWorkloadConfig,
    rng: np.random.Generator,
) -> WorkloadResult:
    """Drive the platform through a full FL training run."""
    selector = Selector(
        SelectorConfig(
            aggregation_goal=config.aggregation_goal,
            over_provision=config.active_clients / config.aggregation_goal,
        )
    )
    weights = population.weights()
    result = WorkloadResult(system=platform.config.name, model=config.spec.name)
    clock = 0.0
    for r in range(config.rounds):
        participants = selector.select(population.clients, rng)
        trace = generate_round_trace(participants, weights, rng)
        # The platform aggregates the first `goal` arrivals of the round.
        goal_arrivals = trace.arrivals[: config.aggregation_goal]
        arrivals = [(a.arrival_time, a.weight) for a in goal_arrivals]
        round_result = platform.run_round(arrivals, config.spec.nbytes)
        span = max(1e-9, goal_arrivals[-1].arrival_time - goal_arrivals[0].arrival_time)
        accuracy = config.curve.accuracy_at(r + 1)
        active = (
            platform.config.fixed_instances
            if platform.config.fixed_instances > 0
            else len(round_result.instances)
        )
        result.samples.append(
            RoundSample(
                round_index=r,
                start_time=clock,
                duration=round_result.completion_time,
                act=round_result.act,
                cpu_total=round_result.cpu_total,
                accuracy=accuracy,
                arrivals_per_minute=60.0 * len(goal_arrivals) / span,
                active_aggregators=active,
            )
        )
        clock += round_result.completion_time
        if config.stop_at_target and accuracy >= config.target_accuracy:
            break
    return result
