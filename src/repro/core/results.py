"""Round and workload result records — the quantities the paper plots."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.eventlog import EventLog


@dataclass(slots=True)
class InstanceStats:
    """Lifecycle of one aggregator instance during a round."""

    agg_id: str
    node: str
    role: str
    created_at: float = 0.0
    ready_at: float = 0.0
    finished_at: float = 0.0
    cold_start: bool = False
    reused: bool = False
    updates_aggregated: int = 0
    #: client (non-intermediate) updates folded in — survives goal math
    client_updates: int = 0
    #: stateless restarts after chaos-injected crashes (§3)
    restarts: int = 0


@dataclass
class RoundResult:
    """Everything one aggregation round produced.

    ``act`` is the Aggregation Completion Time (§5.2): from round start to
    the top aggregator emitting the new global model.  ``completion_time``
    additionally includes the evaluation task.
    """

    act: float
    completion_time: float
    #: CPU-seconds actually burned, by component (ledger buckets)
    cpu_by_component: dict[str, float] = field(default_factory=dict)
    #: CPU-seconds of reserved-but-idle allocation (sidecars, always-on
    #: instances, brokers) — the serverful/serverless "tax"
    cpu_reserved: float = 0.0
    aggregators_created: int = 0
    aggregators_reused: int = 0
    nodes_used: int = 0
    instances: list[InstanceStats] = field(default_factory=list)
    timeline: EventLog = field(default_factory=EventLog)
    updates_aggregated: int = 0
    cross_node_transfers: int = 0
    #: total FedAvg weight the top aggregator emitted (chaos invariant:
    #: equals the summed weight of the client updates actually aggregated)
    total_weight: float = 0.0
    #: chaos bookkeeping — zero on fault-free rounds
    aggregator_restarts: int = 0
    clients_dropped: int = 0
    #: True when the round lost its quorum (multi-tenant runs return the
    #: aborted tenant's partial result instead of raising, so one tenant's
    #: abort cannot destroy its neighbours' completed rounds)
    aborted: bool = False

    @property
    def cpu_work(self) -> float:
        return sum(self.cpu_by_component.values())

    @property
    def cpu_total(self) -> float:
        """The paper's "cumulative CPU time" for the round: real work plus
        reserved allocation."""
        return self.cpu_work + self.cpu_reserved


@dataclass
class RoundSample:
    """One round's row in the Fig. 9/10 time series."""

    round_index: int
    start_time: float
    duration: float
    act: float
    cpu_total: float
    accuracy: float
    arrivals_per_minute: float
    active_aggregators: int


@dataclass
class WorkloadResult:
    """A full FL run: the Fig. 9 curves and Fig. 10 series."""

    system: str
    model: str
    samples: list[RoundSample] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.samples)

    def wall_clock_hours(self) -> float:
        if not self.samples:
            return 0.0
        last = self.samples[-1]
        return (last.start_time + last.duration) / 3600.0

    def cpu_hours(self) -> float:
        return sum(s.cpu_total for s in self.samples) / 3600.0

    def time_to_accuracy(self, target: float) -> float | None:
        """Wall-clock seconds until test accuracy first reaches ``target``."""
        for s in self.samples:
            if s.accuracy >= target:
                return s.start_time + s.duration
        return None

    def cost_to_accuracy(self, target: float) -> float | None:
        """Cumulative CPU-seconds until accuracy first reaches ``target``."""
        total = 0.0
        for s in self.samples:
            total += s.cpu_total
            if s.accuracy >= target:
                return total
        return None

    def accuracy_series(self) -> list[tuple[float, float]]:
        """(wall-clock seconds, accuracy) pairs — Fig. 9(a)/(c)."""
        return [(s.start_time + s.duration, s.accuracy) for s in self.samples]
