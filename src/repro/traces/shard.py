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
* **exact merging** — :meth:`ReplayResult.merge
  <repro.traces.replay.ReplayResult.merge>` folds the shards: per-shard
  :class:`~repro.traces.slo.SloTracker` digests merge by bucket addition
  (exact, see :meth:`LatencyDigest.merge
  <repro.traces.slo.LatencyDigest.merge>`), outcome tallies sum, and
  round records interleave back into arrival order.

Each shard is one serving cell replayed by :func:`run_cell` under the
engine's :class:`~repro.traces.replay.ReplaySpec`, run through the cell
runner :func:`~repro.common.fanout.run_cells`; the geo federation
(:mod:`repro.geo.federation`) reuses :func:`run_cell` for its region
cells.  Every execution mode produces byte-identical merged results,
which the golden-determinism tests pin.

The semantic difference from the unsharded replay is placement, not
randomness: each shard's tenants contend only with each other on their
shard's fabric, so ``shards=N`` models N independent serving cells fed by
one trace.  With one shard there is no difference at all — a
single-shard run is byte-identical to ``TraceReplayEngine.run()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigError
from repro.common.fanout import CellReport, balance, check_cells, critical_path_seconds, run_cells
from repro.telemetry.bus import (
    RecordingSubscriber,
    TelemetryBus,
    TelemetryRecord,
    ambient_bus,
    merge_streams,
)
from repro.traces.models import Trace
from repro.traces.replay import ReplayResult, ReplaySpec, TraceReplayEngine

if TYPE_CHECKING:  # import-light, mirroring replay.py
    from repro.core.platform import AggregationPlatform

__all__ = [
    "ShardPlan",
    "ShardReport",
    "ShardedReplayEngine",
    "ShardedReplayResult",
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
    return ShardPlan(assignments=balance(counts, n_shards))


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


@dataclass(kw_only=True)
class ShardReport(CellReport):
    """One shard's complete output: the cell runner's measurements plus
    the shard's tenants and replay result."""

    tenants: tuple[int, ...]
    result: ReplayResult
    #: the shard's telemetry stream, in its emission order (empty unless
    #: the sharded engine is streaming); records are picklable, so forked
    #: workers ship them home with the rest of the report
    telemetry: list[TelemetryRecord] = dataclass_field(default_factory=list)

    @property
    def perf_label(self) -> str:
        return f"shard{self.shard}"


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

    @property
    def critical_path_seconds(self) -> float:
        """The slowest shard's CPU seconds."""
        return critical_path_seconds(self.shards)


class ShardedReplayEngine:
    """Partition one trace replay across worker processes and merge.

    Serves the trace with one :class:`~repro.traces.replay.ReplaySpec`
    and takes a ``platform_factory`` instead of a platform instance:
    every shard builds its *own* platform (engine, warm pool, node
    fleet), so a shard is a full serving cell and shard results are
    independent of execution order.  The factory must be safe to call
    once per shard.  With a controller in the spec, each shard runs its
    own over its own cell — per-shard ticks stay deterministic and the
    reports merge.
    """

    def __init__(
        self,
        platform_factory: "Callable[[], AggregationPlatform]",
        trace: Trace,
        spec: ReplaySpec,
        shards: int = 1,
        workers: int | None = None,
        telemetry: TelemetryBus | None = None,
    ) -> None:
        check_cells(platform_factory, shards, workers)
        spec.validate()
        self.platform_factory = platform_factory
        self.trace = trace
        self.spec = spec
        self.shards = shards
        self.workers = workers
        #: parent-side telemetry bus (explicit argument or the ambient
        #: capture); shards never touch it directly — each shard records
        #: into a fresh private bus and the parent re-publishes the merged,
        #: shard-stamped stream after the workers return, so file-handle
        #: subscribers are never invoked from a forked child (shards record
        #: their streams only when someone is subscribed on the parent side)
        self.telemetry = telemetry if telemetry is not None else ambient_bus()

    # ------------------------------------------------------------------ run
    def run(self, inline: bool = False) -> ShardedReplayResult:
        """Replay every shard through :func:`~repro.common.fanout.run_cells`
        (``inline=True`` runs them in-process) and merge.

        Every mode is byte-identical: the sub-trace split and all seeding
        are decided before execution mode, and each shard builds its own
        platform either way.
        """
        tel = self.telemetry.or_none() if self.telemetry is not None else None
        plan = plan_shards(self.trace, self.shards)
        # An empty trace plans no shard; one empty replay keeps the report shape.
        tasks = [
            (split_trace(self.trace, tenants), i, tenants)
            for i, tenants in enumerate(plan.assignments)
        ] or [(self.trace, 0, ())]
        reports, workers = run_cells(
            lambda task: run_cell(self.spec, self.platform_factory, *task, tel is not None),
            tasks,
            self.workers,
            inline,
            what="sharded replay",
        )
        if tel is not None:
            # Fold the shards' recorded streams into arrival order
            # (stamping each record's shard) for the parent's subscribers.
            for rec in merge_streams([rep.telemetry for rep in reports]):
                tel.publish(rec)
        merged = ReplayResult.merge(
            [rep.result for rep in reports],
            self.trace.horizon,
            self.spec.config.slo_target_s,
            self.spec.config.track_cost,
        )
        return ShardedReplayResult(
            merged=merged, shards=reports, forked=workers > 1, workers=workers
        )


def run_cell(
    spec: ReplaySpec,
    platform_factory: "Callable[[], AggregationPlatform]",
    sub: Trace,
    shard: int = 0,
    tenants: tuple[int, ...] = (),
    stream: bool = False,
) -> ShardReport:
    """Replay one serving cell of ``sub`` under ``spec`` in the current
    process; the cell builds its own platform from ``platform_factory``.
    The spec is used as given: the engine that owns it validated it.
    :func:`~repro.common.fanout.run_cells` runs the cell and fills in the
    report's counters and self-timing.

    The cell always gets its own private bus (never the parent's): with
    ``stream`` it records into a plain list shipped home in the report,
    and without it blocks any ambient bus from reaching the cell's
    replay — the parent owns all subscriber-facing emission.
    """
    cell_bus = TelemetryBus()
    recorder = RecordingSubscriber(cell_bus) if stream else None
    replay = TraceReplayEngine._of_spec(platform_factory(), sub, spec, cell_bus)  # noqa: SLF001
    return ShardReport(
        shard=shard,
        tenants=tenants,
        result=replay.run(),
        telemetry=recorder.records if recorder is not None else [],
    )
