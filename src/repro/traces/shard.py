"""Multi-core sharded trace replay: one serving cell per worker process.

A single :class:`~repro.traces.replay.TraceReplayEngine` replays every
round of a trace on one core.  :class:`ShardedReplayEngine` instead
partitions the replay's *tenants* across ``N`` worker processes and runs
each partition as an independent serving cell — its own
:class:`~repro.sim.engine.Environment`, its own fabric, its own warm
pool — then folds the per-shard results into one report:

* **tenant-affine sharding** — a tenant's admission queue, warm-pool
  turnover, and SLO accounting are stateful across that tenant's rounds,
  so every round of a tenant must land in the same worker.  The planner
  (:func:`plan_shards`) balances whole tenants across shards by event
  count (greedy LPT, deterministic tie-breaks); a trace with fewer
  tenants than requested shards simply uses fewer shards.
* **byte-deterministic sub-traces** — :func:`split_trace` filters the
  merged timeline per shard *without renumbering*: because
  :func:`~repro.traces.models.merge_traces` numbers ``round_id`` per
  tenant, the filtered sub-trace carries each tenant's original ids, and
  every seeded draw (participants, chaos victims) keys off
  ``(seed, tenant, round_id)`` — so a shard replays its tenants exactly
  as the unsharded engine would have drawn them.
* **fork-based execution** — shards run through
  :func:`~repro.common.fanout.fan_out`, the one fork/merge primitive the
  partitioned and geo engines share: the calling process replays the
  first worker's shards itself and forks one process per other worker.
  The worker count defaults to ``min(shards, available CPUs)`` — a
  worker granted several shards runs them sequentially, so a single-CPU
  host degrades to the inline path instead of paying fork-and-timeslice
  overhead for nothing.
  Where fork is unavailable (or the caller is already a daemonic pool
  worker, which cannot fork children), shards likewise run inline; every
  execution mode returns the shards in shard order and produces
  byte-identical merged results, which the golden-determinism tests pin.
* **exact merging** — :meth:`ReplayResult.merge
  <repro.traces.replay.ReplayResult.merge>` folds the shards: per-shard
  :class:`~repro.traces.slo.SloTracker` digests merge by bucket addition
  (exact, see :meth:`LatencyDigest.merge
  <repro.traces.slo.LatencyDigest.merge>`), outcome tallies sum, round
  records interleave back into arrival order, and engine counters
  (:mod:`repro.perf`) are reported per shard and merged.

Each shard is one serving cell replayed by :func:`run_cell`, which the
geo federation (:mod:`repro.geo.federation`) reuses for its region
cells.

The semantic difference from the unsharded replay is placement, not
randomness: each shard's tenants contend only with each other on their
shard's fabric, so ``shards=N`` models N independent serving cells fed by
one trace.  With one shard there is no difference at all — a
single-shard run is byte-identical to ``TraceReplayEngine.run()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigError
from repro.common.fanout import fan_out
from repro.core.partition import CohortPlan, plan_cohorts  # noqa: F401 - re-export:
# plan_shards splits *tenants* across serving cells; plan_cohorts (one layer
# down, in repro.core.partition) splits a single round's *cohort* across
# worker processes along the HierarchyPlan boundary.
from repro.perf.counters import CounterCarrier, EngineCounters, collect, maybe_register
from repro.telemetry.bus import (
    RecordingSubscriber,
    TelemetryBus,
    TelemetryRecord,
    ambient_bus,
    merge_streams,
)
from repro.traces.models import Trace
from repro.traces.replay import ReplayConfig, ReplayResult, TraceReplayEngine

if TYPE_CHECKING:  # import-light, mirroring replay.py
    from repro.chaos.plan import FaultPlan
    from repro.controlplane.reactive import ControllerConfig
    from repro.core.platform import AggregationPlatform
    from repro.fl.client import FLClient
    from repro.fl.population import ClientPopulation
    from repro.fl.selector import Selector
    from repro.geo.federation import GeoReplayEngine
    from repro.traces.models import AvailabilityTrace
    from repro.traces.replay import ChaosCorrelation

__all__ = [
    "CohortPlan",
    "ShardPlan",
    "ShardReport",
    "ShardedReplayEngine",
    "ShardedReplayResult",
    "plan_cohorts",
    "plan_shards",
    "run_cell",
    "split_trace",
]


@dataclass(frozen=True)
class ShardPlan:
    """Which tenants each shard serves: ``assignments[i]`` is shard ``i``'s
    sorted tenant-id tuple.  Empty shards are never emitted."""

    assignments: tuple[tuple[int, ...], ...]

    @property
    def n_shards(self) -> int:
        return len(self.assignments)

    def validate(self, trace: Trace) -> None:
        seen: set[int] = set()
        for tenants in self.assignments:
            if not tenants:
                raise ConfigError("shard plan contains an empty shard")
            overlap = seen.intersection(tenants)
            if overlap:
                raise ConfigError(f"tenants assigned to two shards: {sorted(overlap)}")
            seen.update(tenants)
        have = {ev.tenant for ev in trace.events}
        if seen != have:
            raise ConfigError(
                f"shard plan covers tenants {sorted(seen)} but trace has {sorted(have)}"
            )


def plan_shards(trace: Trace, n_shards: int) -> ShardPlan:
    """Balance whole tenants across at most ``n_shards`` shards.

    Greedy longest-processing-time by per-tenant event count: tenants are
    taken heaviest first and each lands on the least-loaded shard, with
    deterministic tie-breaks (tenant id, then shard index).  The effective
    shard count is capped at the number of tenants with events — a
    single-tenant trace always yields one shard, whatever was asked for.
    """
    if n_shards < 1:
        raise ConfigError(f"shards must be >= 1, got {n_shards}")
    counts: dict[int, int] = {}
    for ev in trace.events:
        counts[ev.tenant] = counts.get(ev.tenant, 0) + 1
    if not counts:
        return ShardPlan(assignments=())
    n = min(n_shards, len(counts))
    loads = [0] * n
    members: list[list[int]] = [[] for _ in range(n)]
    for tenant in sorted(counts, key=lambda t: (-counts[t], t)):
        shard = min(range(n), key=lambda i: (loads[i], i))
        loads[shard] += counts[tenant]
        members[shard].append(tenant)
    return ShardPlan(assignments=tuple(tuple(sorted(m)) for m in members))


def split_trace(trace: Trace, tenants: tuple[int, ...]) -> Trace:
    """The sub-trace a shard replays: ``trace`` filtered to ``tenants``.

    Events keep their original times, tenant ids, and per-tenant round
    ids (``merge_traces`` numbers rounds per tenant, so a tenant subset is
    already sequentially numbered) — the filtered trace therefore drives
    the identical seeded draws the full trace would for those tenants.
    The horizon is preserved so rate/time bookkeeping stays comparable.
    """
    keep = set(tenants)
    sub = Trace(
        events=[ev for ev in trace.events if ev.tenant in keep],
        horizon=trace.horizon,
        source=f"{trace.source or '?'} [tenants {','.join(map(str, sorted(keep)))}]",
    )
    sub.validate()
    return sub


@dataclass
class ShardReport:
    """One shard's complete output: its replay result, the engine counters
    its environment accumulated, and its own wall/CPU self-timing (CPU
    seconds are immune to timeslicing, so the slowest shard's CPU time is
    the replay's critical path on an uncontended multi-core host)."""

    shard: int
    tenants: tuple[int, ...]
    result: ReplayResult
    counters: dict[str, int]
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: the shard's telemetry stream, in its emission order (empty unless
    #: the sharded engine is streaming); records are picklable, so forked
    #: workers ship them home with the rest of the report
    telemetry: list[TelemetryRecord] = dataclass_field(default_factory=list)


@dataclass
class ShardedReplayResult:
    """A sharded replay's merged view plus the per-shard breakdown.

    ``merged`` is a plain :class:`~repro.traces.replay.ReplayResult` whose
    SLO tracker is the exact fold of every shard's tracker, so
    ``row()``/``report()`` have the same shape (and, for one shard, the
    same bytes) as an unsharded replay.  ``peak_inflight`` sums the
    per-shard peaks — the total concurrent-round capacity the shard fleet
    used.
    """

    merged: ReplayResult
    shards: list[ShardReport]
    #: True when some shards ran on forked workers, False for the inline path
    forked: bool
    #: processes that replayed shards, the caller included (1 inline)
    workers: int = 1

    def row(self) -> dict:
        return self.merged.row()

    def merged_counters(self) -> EngineCounters:
        snap = EngineCounters()
        for rep in self.shards:
            snap.merge_environment(CounterCarrier(f"shard{rep.shard}", rep.counters))
        return snap

    @property
    def critical_path_seconds(self) -> float:
        """The slowest shard's CPU seconds — the wall-clock floor a host
        with at least as many free cores as shards can reach."""
        return max((rep.cpu_seconds for rep in self.shards), default=0.0)


class ShardedReplayEngine:
    """Partition one trace replay across worker processes and merge.

    Mirrors :class:`~repro.traces.replay.TraceReplayEngine`'s knobs but
    takes a ``platform_factory`` instead of a platform instance: every
    shard builds its *own* platform (engine, warm pool, node fleet), so a
    shard is a full serving cell and shard results are independent of
    execution order.  The factory must be safe to call once per shard.
    """

    def __init__(
        self,
        platform_factory: "Callable[[], AggregationPlatform]",
        trace: Trace,
        config: ReplayConfig | None = None,
        availability: "AvailabilityTrace | None" = None,
        weights: dict[str, float] | None = None,
        selector: "Selector | None" = None,
        clients: "list[FLClient] | None" = None,
        chaos: "ChaosCorrelation | None" = None,
        seed: int = 0,
        shards: int = 1,
        workers: int | None = None,
        population: "ClientPopulation | None" = None,
        controller: "ControllerConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
        telemetry: TelemetryBus | None = None,
    ) -> None:
        if not callable(platform_factory):
            raise ConfigError("platform_factory must be callable")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.platform_factory = platform_factory
        self.trace = trace
        self.config = config or ReplayConfig()
        self.availability = availability
        self.weights = weights
        self.selector = selector
        self.clients = clients
        self.chaos = chaos
        self.seed = seed
        self.shards = shards
        self.workers = workers
        self.population = population
        #: each shard runs its own controller over its own serving cell —
        #: per-shard ticks stay deterministic and the reports merge
        self.controller = controller
        self.fault_plan = fault_plan
        #: parent-side telemetry bus (explicit argument or the ambient
        #: capture); shards never touch it directly — each shard records
        #: into a fresh private bus and the parent re-publishes the merged,
        #: shard-stamped stream after the workers return, so file-handle
        #: subscribers are never invoked from a forked child (shards record
        #: their streams only when someone is subscribed on the parent side)
        self.telemetry = telemetry if telemetry is not None else ambient_bus()

    # ------------------------------------------------------------------ run
    def run(self, inline: bool = False) -> ShardedReplayResult:
        """Replay every shard through :func:`~repro.common.fanout.fan_out`
        (``inline=True`` runs them in-process) and merge.

        Every mode is byte-identical: the sub-trace split and all seeding
        are decided before execution mode, and each shard builds its own
        platform either way.
        """
        tel = self.telemetry.or_none() if self.telemetry is not None else None
        plan = plan_shards(self.trace, self.shards)
        # An empty trace plans no shard; one empty replay keeps the report shape.
        tasks = [
            (i, split_trace(self.trace, tenants), tenants)
            for i, tenants in enumerate(plan.assignments)
        ] or [(0, self.trace, ())]

        def replay(task: tuple[int, Trace, tuple[int, ...]]) -> ShardReport:
            shard, sub, tenants = task
            return run_cell(
                self,
                self.platform_factory,
                sub,
                shard=shard,
                tenants=tenants,
                fault_plan=self.fault_plan,
                stream=tel is not None,
            )

        reports, workers = fan_out(
            replay, tasks, self.workers, inline, what="sharded replay"
        )
        if workers > 1:
            # Forked shards' environments lived in the children, and
            # fan_out hid the parent's own share from collectors; credit
            # every shard's counters to any active --profile collector here.
            for rep in reports:
                maybe_register(CounterCarrier(f"shard{rep.shard}", rep.counters))
        if tel is not None:
            # Fold the shards' recorded streams into arrival order
            # (stamping each record's shard) for the parent's subscribers.
            for rec in merge_streams([rep.telemetry for rep in reports]):
                tel.publish(rec)
        merged = ReplayResult.merge(
            [rep.result for rep in reports],
            self.trace.horizon,
            self.config.slo_target_s,
            self.config.track_cost,
        )
        return ShardedReplayResult(
            merged=merged, shards=reports, forked=workers > 1, workers=workers
        )


def run_cell(
    owner: "ShardedReplayEngine | GeoReplayEngine",
    platform_factory: "Callable[[], AggregationPlatform]",
    sub: Trace,
    shard: int = 0,
    tenants: tuple[int, ...] = (),
    fault_plan: "FaultPlan | None" = None,
    stream: bool = False,
) -> ShardReport:
    """Replay one serving cell in the current process, collecting counters.

    ``owner`` supplies the replay knobs (``config``, ``availability``,
    ``weights``, ``selector``, ``clients``, ``chaos``, ``seed``,
    ``population``, ``controller``) — a :class:`ShardedReplayEngine` or
    a :class:`~repro.geo.federation.GeoReplayEngine`; the cell builds its
    own platform from ``platform_factory``.

    The cell always gets its own private bus (never the parent's): with
    ``stream`` it records into a plain list shipped home in the report,
    and without it blocks any ambient bus from reaching the cell's
    replay — the parent owns all subscriber-facing emission.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    cell_bus = TelemetryBus()
    recorder = RecordingSubscriber(cell_bus) if stream else None
    with collect() as perf:
        engine = TraceReplayEngine(
            platform_factory(),
            sub,
            owner.config,
            availability=owner.availability,
            weights=owner.weights,
            selector=owner.selector,
            clients=owner.clients,
            chaos=owner.chaos,
            seed=owner.seed,
            population=owner.population,
            controller=owner.controller,
            fault_plan=fault_plan,
            telemetry=cell_bus,
        )
        result = engine.run()
    return ShardReport(
        shard=shard,
        tenants=tenants,
        result=result,
        counters=perf.counters().as_dict(),
        wall_seconds=time.perf_counter() - wall0,
        cpu_seconds=time.process_time() - cpu0,
        telemetry=recorder.records if recorder is not None else [],
    )
