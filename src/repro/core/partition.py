"""Partitioned fabric cohorts: one round's leaf cohort across processes.

:mod:`repro.traces.shard` splits a *replay* tenant-affine — whole tenants
to whole workers, every round simulated entirely inside one process.  This
module splits a *single round* cohort-affine along its
:class:`~repro.controlplane.hierarchy.HierarchyPlan` boundary, which is
what makes 10k-participant rounds tractable on one host:

* under locality-aware placement with gateway ingress (the LIFL shape),
  every below-top edge of the tree is intra-node, and each non-top node
  emits exactly **one** intermediate update to the top aggregator — the
  only traffic that crosses nodes;
* a non-top node's subtree dynamics (ingress admission, leaf/mid
  pipelines, role conversion) therefore depend only on that node's own
  updates and resources — never on the top or on other nodes — so whole
  nodes can be simulated in worker processes on their own
  :class:`~repro.sim.engine.Environment`/fabric, concurrently;
* workers record their boundary emissions ``(agg_id, node, weight,
  emit_at)``; the **root phase** then replays every round on the parent's
  engine with those emissions injected as inter-node transfers at their
  exact emit instants — the shared-fabric RX contention and the top
  node's ingress admission are simulated once, with all cross-partition
  flows present, so the merged ACT and total FedAvg weight match the
  unpartitioned round exactly.

Workers run *all* of a run's rounds back to back (their engines keep their
warm pools across rounds, exactly like a sequential engine would), and the
protocol is one-shot: sub-round results and emissions cross the process
boundary once, serialized, and fold into the parent's
:class:`~repro.core.results.RoundResult` through the existing exact
bookkeeping paths.  CPU buckets add, instance stats concatenate, and the
reserved-CPU account is recomputed globally from the merged instances so
duration-dependent reservations match the unpartitioned accounting.

``shards=1`` bypasses the protocol entirely — it is literally the
sequential engine, so it is byte-identical to an unpartitioned run (the
golden tests pin this).  Cohorts run through
:func:`~repro.common.fanout.run_cells`, the cell runner the sharded and
geo engines share; this module keeps only the cohort plan and the root
phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import ConfigError
from repro.common.fanout import CellReport, balance, check_cells, critical_path_seconds, run_cells
from repro.controlplane.hierarchy import HierarchyPlan
from repro.core.results import RoundResult
from repro.core.stages import GatewayIngress
from repro.core.updates import SimUpdate
from repro.sim.engine import Environment

if TYPE_CHECKING:  # import-light, mirroring traces/shard.py
    from repro.core.platform import AggregationPlatform
    from repro.core.roundsim import RoundEngine

__all__ = [
    "CohortPlan",
    "CohortReport",
    "PartitionedRoundEngine",
    "PartitionedRunResult",
    "plan_cohorts",
]

#: one recorded boundary emission: (agg_id, src_node, weight, emit_at)
Emission = tuple[str, str, float, float]


@dataclass(frozen=True)
class CohortPlan:
    """Which non-root nodes each cohort shard simulates.

    ``assignments[i]`` is shard ``i``'s sorted node tuple; the root node
    (the plan's top) is never assigned — the parent's root phase owns it.
    Empty shards are never emitted.
    """

    root_node: str
    assignments: tuple[tuple[str, ...], ...]

    @property
    def n_shards(self) -> int:
        return len(self.assignments)

    def validate(self, rounds: Sequence[tuple[list[SimUpdate], HierarchyPlan]]) -> None:
        """Conservation: every update's node lands in exactly one cohort
        (or on the root), across every round of the run."""
        seen: set[str] = set()
        for nodes in self.assignments:
            if not nodes:
                raise ConfigError("cohort plan contains an empty shard")
            overlap = seen.intersection(nodes)
            if overlap:
                raise ConfigError(f"nodes assigned to two cohorts: {sorted(overlap)}")
            seen.update(nodes)
        if self.root_node in seen:
            raise ConfigError(f"root node {self.root_node!r} assigned to a cohort")
        for updates, plan in rounds:
            if plan.top.node != self.root_node:
                raise ConfigError(
                    f"round tops differ: {plan.top.node!r} vs {self.root_node!r}"
                )
            stray = {u.node for u in updates} - seen - {self.root_node}
            if stray:
                raise ConfigError(f"nodes outside every cohort: {sorted(stray)}")


def plan_cohorts(
    rounds: Sequence[tuple[list[SimUpdate], HierarchyPlan]], n_shards: int
) -> CohortPlan:
    """Balance a run's non-root active nodes over at most ``n_shards``
    cohorts.

    Greedy longest-processing-time by per-node update count summed across
    rounds (the cohort-affine analogue of
    :func:`repro.traces.shard.plan_shards`'s tenant-affine planning), with
    deterministic tie-breaks (node name, then shard index).  The effective
    shard count is capped at the number of non-root active nodes; a
    single-node run yields zero cohorts — everything belongs to the root
    phase.
    """
    if n_shards < 1:
        raise ConfigError(f"shards must be >= 1, got {n_shards}")
    if not rounds:
        raise ConfigError("cohort planning needs at least one round")
    root = rounds[0][1].top.node
    counts: dict[str, int] = {}
    for updates, plan in rounds:
        if plan.top.node != root:
            raise ConfigError(
                f"round tops differ: {plan.top.node!r} vs {root!r} — "
                "a partitioned run needs one stable root node"
            )
        for u in updates:
            if u.node != root:
                counts[u.node] = counts.get(u.node, 0) + 1
    plan = CohortPlan(root_node=root, assignments=balance(counts, n_shards))
    plan.validate(rounds)
    return plan


@dataclass(kw_only=True)
class CohortReport(CellReport):
    """One cohort shard's complete output: the cell runner's measurements
    plus the nodes it simulated and the boundary emissions it shipped.
    The slowest cohort's CPU plus the root phase's is the run's
    multi-core critical path."""

    nodes: tuple[str, ...]
    emissions: int
    #: per round, the boundary emissions and the partial
    #: :class:`RoundResult` that the root phase replays and folds
    rounds: list[tuple[list[Emission], RoundResult]] = field(default_factory=list, repr=False)

    @property
    def perf_label(self) -> str:
        return f"cohort{self.shard}"


@dataclass
class PartitionedRunResult:
    """A partitioned run's merged results plus the cohort breakdown."""

    results: list[RoundResult]
    cohorts: list[CohortReport] = field(default_factory=list)
    #: True when some cohorts ran on forked workers, False inline/sequential
    forked: bool = False
    #: processes that simulated cohorts, the caller included (1 for
    #: inline/sequential)
    workers: int = 1
    #: CPU seconds the parent's root phase burned (all rounds)
    root_cpu_seconds: float = 0.0

    @property
    def critical_path_seconds(self) -> float:
        """The slowest cohort's CPU plus the serial root phase — the
        wall-clock floor a host with one free core per cohort reaches."""
        return critical_path_seconds(self.cohorts) + self.root_cpu_seconds


class PartitionedRoundEngine:
    """Run consecutive rounds with each round's cohort cut across workers.

    ``platform_factory`` must build identically-configured platforms (one
    for the parent's planning + root phase, one per cohort worker — the
    same contract as :class:`~repro.traces.shard.ShardedReplayEngine`).
    Supported configurations are the gateway-ingress, locality-aware,
    planned-hierarchy shape (LIFL and derivatives): broker ingress shares
    ONE admission resource across all nodes and locality-agnostic
    placement crosses the partition on the ingress path, so both are
    refused loudly rather than simulated wrongly.
    """

    def __init__(
        self,
        platform_factory: "Callable[[], AggregationPlatform]",
        shards: int = 1,
        workers: int | None = None,
    ) -> None:
        check_cells(platform_factory, shards, workers)
        self.platform_factory = platform_factory
        self.shards = shards
        self.workers = workers

    # ------------------------------------------------------------------ run
    def run(
        self,
        rounds_arrivals: Sequence[list[tuple[float, float]]],
        nbytes: float,
        include_eval: bool = False,
        inline: bool = False,
    ) -> PartitionedRunResult:
        """Place, plan, and simulate ``len(rounds_arrivals)`` consecutive
        rounds (warm pools turn over round to round, like sequential
        ``run_round`` calls).

        ``shards=1`` — or a run whose plans have no non-root nodes — runs
        the plain sequential engine: byte-identical to unpartitioned.
        ``inline=True`` forces cohorts in-process (forked and inline are
        identical: all seeding happens before execution mode is chosen).
        """
        if not rounds_arrivals:
            raise ConfigError("partitioned run needs at least one round")
        platform = self.platform_factory()
        engine = platform.engine
        self._check_supported(platform)
        prepared = [
            platform.prepare_round(arrivals, nbytes) for arrivals in rounds_arrivals
        ]
        spans = [
            max(u.arrival_time for u in updates) - min(u.arrival_time for u in updates)
            for updates, _ in prepared
        ]
        cohorts = (
            plan_cohorts(prepared, self.shards)
            if self.shards > 1
            else CohortPlan(root_node=prepared[0][1].top.node, assignments=())
        )
        if cohorts.n_shards == 0:
            return self._run_sequential(engine, prepared, include_eval)

        tasks = []
        for shard_id, nodes in enumerate(cohorts.assignments):
            node_set = frozenset(nodes)
            tasks.append(
                (
                    shard_id,
                    nodes,
                    [
                        ([u for u in updates if u.node in node_set], plan, span)
                        for (updates, plan), span in zip(prepared, spans)
                    ],
                )
            )
        reports, workers = run_cells(
            lambda task: self._run_cohort(*task),
            tasks,
            self.workers,
            inline,
            what="partitioned round",
        )

        # -- root phase: replay each round with every cohort's emissions --
        cpu0 = time.process_time()
        results: list[RoundResult] = []
        root = cohorts.root_node
        for r, ((updates, plan), span) in enumerate(zip(prepared, spans)):
            root_updates = [u for u in updates if u.node == root]
            remote: list[Emission] = []
            for rep in reports:
                remote.extend(rep.rounds[r][0])
            remote.sort(key=lambda e: (e[3], e[0]))
            env = Environment()
            fabric = engine.build_fabric(env)
            tenant = engine._install(  # noqa: SLF001 - partition is engine-internal
                env,
                fabric,
                root_updates,
                plan,
                record_timeline=False,
                local_nodes=frozenset((root,)),
                remote_inputs=remote,
                arrival_span=span,
            )
            env.run(until=tenant.top_done)
            merged = engine.finish_round(tenant, include_eval)
            self._merge_round(engine, merged, [rep.rounds[r][1] for rep in reports])
            results.append(merged)
        root_cpu = time.process_time() - cpu0

        return PartitionedRunResult(
            results=results,
            cohorts=reports,
            forked=workers > 1,
            workers=workers,
            root_cpu_seconds=root_cpu,
        )

    # ----------------------------------------------------------- sequential
    def _run_sequential(
        self,
        engine: "RoundEngine",
        prepared: list[tuple[list[SimUpdate], HierarchyPlan]],
        include_eval: bool,
    ) -> PartitionedRunResult:
        cpu0 = time.process_time()
        results = [
            engine.run_round(
                updates, plan, include_eval=include_eval, record_timeline=False
            )
            for updates, plan in prepared
        ]
        return PartitionedRunResult(
            results=results, root_cpu_seconds=time.process_time() - cpu0
        )

    # -------------------------------------------------------------- cohorts
    def _run_cohort(
        self,
        shard_id: int,
        nodes: tuple[str, ...],
        rounds: list[tuple[list[SimUpdate], HierarchyPlan, float]],
    ) -> CohortReport:
        """Simulate one cohort's node subset for every round, in-process;
        return its report, which carries per round its boundary emissions
        and partial :class:`RoundResult`.

        The cohort's engine persists across rounds (warm-pool turnover);
        each round runs on a fresh environment whose clock starts at the
        round's own zero, so recorded emit times are round-relative — the
        root phase replays them on the same basis.
        """
        node_set = frozenset(nodes)
        out: list[tuple[list[Emission], RoundResult]] = []
        engine = self.platform_factory().engine
        for sub_updates, plan, span in rounds:
            emissions: list[Emission] = []
            env = Environment()
            fabric = engine.build_fabric(env)
            tenant = engine._install(  # noqa: SLF001
                env,
                fabric,
                sub_updates,
                plan,
                record_timeline=False,
                local_nodes=node_set,
                boundary_emit=lambda *emission: emissions.append(emission),
                arrival_span=span,
            )
            env.run(until=tenant.top_done)
            partial = engine.finish_round(tenant, include_eval=False)
            out.append((emissions, partial))
        return CohortReport(
            shard=shard_id,
            nodes=nodes,
            emissions=sum(len(emissions) for emissions, _ in out),
            rounds=out,
        )

    # ------------------------------------------------------------------ merge
    @staticmethod
    def _merge_round(
        engine: "RoundEngine", merged: RoundResult, partials: list[RoundResult]
    ) -> RoundResult:
        """Fold cohort partials into the root phase's result.

        CPU buckets add, instance stats concatenate, per-phase counts sum
        (node partitions are disjoint, so nothing double-counts); the
        created/reused tallies and the duration-dependent reserved-CPU
        account are recomputed from the *merged* instance list so they
        match what an unpartitioned round would have reported.
        """
        for part in partials:
            for comp, secs in part.cpu_by_component.items():
                merged.cpu_by_component[comp] = (
                    merged.cpu_by_component.get(comp, 0.0) + secs
                )
            merged.instances.extend(part.instances)
            merged.updates_aggregated += part.updates_aggregated
            merged.nodes_used += part.nodes_used
            merged.cross_node_transfers += part.cross_node_transfers
            merged.aggregator_restarts += part.aggregator_restarts
            merged.clients_dropped += part.clients_dropped
        merged.aggregators_created = sum(1 for i in merged.instances if i.cold_start)
        merged.aggregators_reused = sum(1 for i in merged.instances if i.reused)
        merged.cpu_reserved = engine._reserved_cpu(merged)  # noqa: SLF001
        return merged

    # ------------------------------------------------------------------ gates
    @staticmethod
    def _check_supported(platform: "AggregationPlatform") -> None:
        cfg = platform.config
        if not cfg.locality_aware:
            raise ConfigError(
                "cohort partitioning needs locality-aware placement: "
                "locality-agnostic ingress crosses the partition on every "
                "update's path to its leaf"
            )
        if not isinstance(platform.engine.ingress, GatewayIngress):
            raise ConfigError(
                "cohort partitioning needs a per-node gateway ingress; the "
                "broker stages share one admission resource across all nodes"
            )
        if cfg.static_leaf_nodes > 0 or cfg.fixed_instances > 0:
            raise ConfigError("cohort partitioning does not support static (SF) trees")

