"""The round engine: one aggregation round under any platform configuration.

Given (a) a batch of model updates with arrival times and node assignments,
(b) a hierarchy plan, and (c) a :class:`~repro.core.platform.PlatformConfig`
describing the system's data plane and orchestration behaviour, the engine
simulates the round on the discrete-event kernel and returns a
:class:`~repro.core.results.RoundResult`.

What is simulated (vs computed):

* ingress serialization (per-node gateway with vertical scaling, or the
  shared broker of SF/SL) — queueing emerges from resource contention;
* aggregator step pipelines (Recv/Agg/Send) with eager or lazy timing;
* intermediate-update transfers: intra-node via the configured pipeline's
  latency; inter-node additionally through the fabric's processor-sharing
  NIC links and the destination node's ingress resource;
* cold starts, reactive-scaling ramp delays, warm reuse (role conversion);
* CPU: every stage bills the hosting node's ledger; reserved-but-idle
  allocations (always-on instances, sidecars, brokers, the gateway's
  stateful tax) are added per the config's reservation rates.

The engine itself is platform-agnostic: ingress serialization/admission,
aggregator-to-aggregator transfer costs, and instance-lifecycle policy are
the stage objects of :mod:`repro.core.stages`; the ingress stage is
resolved through the ``ingress`` policy family (select a variant via
``PlatformConfig.ingress_stage``).

Two extension points sit on top of the stages:

* **Fault injection** — ``run_round(..., injector=...)`` hands the fully
  installed round (a :class:`TenantRound`) to a
  :class:`repro.chaos.FaultInjector` before the clock starts; the injector
  attaches its fault and recovery processes to the same environment.  With
  no injector the round is byte-identical to the pre-chaos engine.
* **Multi-tenancy** — :meth:`RoundEngine.run_multi_tenant` installs several
  rounds on ONE environment and ONE fabric, so concurrent tenants contend
  for the same NIC links while keeping their own instances, ingress
  resources, and CPU ledgers.
* **Arrival-driven admission** — :meth:`RoundEngine.install_round` /
  :meth:`RoundEngine.finish_round` are the same install/settle halves as
  public API: a serving loop (see :mod:`repro.traces.replay`) can admit a
  round *mid-simulation* (update arrival times are relative to the install
  instant), let it overlap earlier rounds on the shared fabric, and settle
  it when its top aggregator fires — warm pools turn over round by round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.cluster.network import Fabric
from repro.cluster.node import CpuAccount, NodeSpec
from repro.common.errors import ConfigError, SimulationError
from repro.common.eventlog import EventLog
from repro.controlplane.hierarchy import HierarchyPlan, Role
from repro.core.aggregator import AggregatorCosts, AggregatorInstance
from repro.core.platform import PlatformConfig
from repro.core.results import RoundResult
from repro.core.stages import LifecycleStage, TransferStage, resolve_ingress
from repro.core.updates import MailboxItem, SimUpdate
from repro.dataplane.calibration import DEFAULT_CALIBRATION, DataplaneCalibration
from repro.sim.engine import Environment, Event, Interrupt, Timeout
from repro.sim.resources import Resource

__all__ = ["RoundEngine", "TenantRound", "required_leaf_capacity"]


@dataclass
class TenantRound:
    """One installed-but-not-yet-run round on a shared environment.

    ``run_round`` installs exactly one; ``run_multi_tenant`` installs one
    per tenant on a shared fabric.  The chaos subsystem receives these as
    its handles: everything a :class:`~repro.chaos.FaultInjector` kills,
    restarts, or re-goals hangs off this record.
    """

    label: str
    updates: list[SimUpdate]
    plan: HierarchyPlan
    nbytes: float
    #: CPU ledgers of the nodes this round touches, in fleet order
    nodes: dict[str, CpuAccount]
    instances: dict[str, "object"]  # agg_id -> AggregatorInstance
    #: update uid -> its ingress flow (chaos drops clients through these)
    ingress_procs: dict[int, "DeliveryFlow"]
    leaf_assignment: dict[int, str]
    top_done: "object"  # Event
    result: RoundResult
    record: Optional[Callable[[str, str, float, float], None]]
    #: force-create an instance through the lifecycle stage (used by the
    #: recovery controller when a reactive leaf lost all its clients and
    #: must still emit its empty intermediate)
    create: Callable[[object], None]
    #: what the round's delivery flows share; it holds the delivery hook,
    #: so the flows never point back at this record
    flows: "_FlowContext"
    chaos_active: bool = False
    clients_dropped: int = 0
    dropped_uids: set[int] = field(default_factory=set)

    @property
    def on_delivery(self) -> Optional[Callable[[SimUpdate], None]]:
        """Chaos hook: called with the SimUpdate after each successful
        delivery (None: no hook)."""
        return self.flows.on_delivery

    @on_delivery.setter
    def on_delivery(self, hook: Optional[Callable[[SimUpdate], None]]) -> None:
        self.flows.on_delivery = hook


@dataclass(frozen=True, slots=True)
class _CostTable:
    """Latency/CPU constants materialized for one update size."""

    ingress_latency: float
    ingress_cpu: float
    recv_client_latency: float
    recv_client_cpu: float
    agg_latency: float
    agg_cpu: float
    intra_latency: float
    intra_cpu: float
    inter_tx_latency: float
    inter_tx_cpu: float
    inter_rx_latency: float
    inter_rx_cpu: float


class RoundEngine:
    """Simulates aggregation rounds for one platform configuration."""

    def __init__(
        self,
        config: PlatformConfig,
        node_names: list[str],
        cal: DataplaneCalibration = DEFAULT_CALIBRATION,
        node_spec: NodeSpec | None = None,
        nic_bps_by_node: Mapping[str, float] | None = None,
    ) -> None:
        if not node_names:
            raise ConfigError("round engine needs at least one node")
        self.config = config
        self.cal = cal
        self.node_names = list(node_names)
        if len(set(self.node_names)) != len(self.node_names):
            dupes = sorted({n for n in self.node_names if self.node_names.count(n) > 1})
            raise ConfigError(f"duplicate node names in fleet: {dupes}")
        self.node_spec = node_spec or NodeSpec(name="template")
        #: heterogeneous fleets: per-node NIC capacity overrides (bytes/s);
        #: nodes absent from the map use ``node_spec.nic_bps``
        self.nic_bps_by_node = dict(nic_bps_by_node) if nic_bps_by_node else None
        if self.nic_bps_by_node:
            unknown = set(self.nic_bps_by_node) - set(self.node_names)
            if unknown:
                raise ConfigError(f"NIC overrides for unknown nodes: {sorted(unknown)}")
        self.ingress = resolve_ingress(config)
        self.transfer = TransferStage()
        self.lifecycle = LifecycleStage()
        #: fleet position of each node: an install builds ledgers and
        #: ingress resources for the nodes it touches, in this order
        self._fleet_rank = {name: i for i, name in enumerate(self.node_names)}
        self._cost_tables: dict[float, _CostTable] = {}

    # ------------------------------------------------------------------ costs
    def _costs_for(self, nbytes: float) -> _CostTable:
        """The stage costs for one model size, built on first use and then
        reused: they are pure functions of the frozen config, the
        calibration and ``nbytes``."""
        table = self._cost_tables.get(nbytes)
        if table is not None:
            return table
        cal = self.cal
        cfg = self.config
        ing = self.ingress.costs(cfg, cal, nbytes)
        xfer = self.transfer.costs(cfg, cal, nbytes)
        table = self._cost_tables[nbytes] = _CostTable(
            ingress_latency=ing.ingress_latency,
            ingress_cpu=ing.ingress_cpu,
            recv_client_latency=ing.recv_latency,
            recv_client_cpu=ing.recv_cpu,
            agg_latency=cal.agg_compute_lat_per_byte * nbytes,
            agg_cpu=cal.agg_compute_cpu_per_byte * nbytes,
            intra_latency=xfer.intra_latency,
            intra_cpu=xfer.intra_cpu,
            inter_tx_latency=xfer.inter_tx_latency,
            inter_tx_cpu=xfer.inter_tx_cpu,
            inter_rx_latency=xfer.inter_rx_latency,
            inter_rx_cpu=xfer.inter_rx_cpu,
        )
        return table

    # ------------------------------------------------------------------- round
    def run_round(
        self,
        updates: list[SimUpdate],
        plan: HierarchyPlan,
        include_eval: bool = True,
        record_timeline: bool = True,
        injector: "object | None" = None,
    ) -> RoundResult:
        """Simulate one round; updates must already carry node assignments
        consistent with ``plan`` (the platform does placement first).

        ``record_timeline=False`` swaps the timeline sink for a no-op —
        stress-scale rounds that never render a Gantt chart skip the
        per-event :class:`TimelineEvent` cost (the result's ``timeline``
        stays empty).

        ``injector`` (a :class:`repro.chaos.FaultInjector`, duck-typed)
        attaches fault/recovery processes to the installed round before the
        clock starts; it may raise
        :class:`~repro.common.errors.RoundAbort` out of this call when the
        round loses its quorum.  ``None`` leaves the round untouched.
        """
        env = Environment()
        fabric = self.build_fabric(env)
        tenant = self._install(env, fabric, updates, plan, record_timeline)
        try:
            if injector is not None:
                injector.install(env=env, fabric=fabric, engine=self, tenants=[tenant])
            env.run(until=tenant.top_done)
        except Exception:
            # The platform reclaims a failed round's pods like any other
            # round's — skipping end_round on an abort (or on an injector
            # rejecting its plan) would leak the warm slots the round
            # consumed and distort every later round on this engine.  Only
            # instances that actually came up are reclaimable: a reactive
            # round that aborted early must not stock phantom warm pods.
            self.lifecycle.end_round(self.config, _created_per_node(tenant.instances))
            raise
        return self.finish_round(tenant, include_eval)

    def run_multi_tenant(
        self,
        tenants: Sequence[tuple[list[SimUpdate], HierarchyPlan]],
        include_eval: bool = False,
        record_timeline: bool = False,
        injector: "object | None" = None,
    ) -> list[RoundResult]:
        """Run several tenants' rounds *concurrently* on one shared fabric.

        Each tenant keeps its own aggregator instances, ingress resources,
        and per-node CPU ledgers (namespaced deployments), but every
        inter-node byte of every tenant crosses the same processor-sharing
        NIC links — the contention multi-tenant scenarios measure.  Results
        are returned in tenant order, each with its own ACT.

        Tenants are failure-isolated: a tenant whose chaos round loses its
        quorum gets ``result.aborted = True`` (partial bookkeeping, ACT 0)
        instead of raising, so one tenant's abort cannot destroy its
        neighbours' completed rounds.
        """
        if not tenants:
            raise ConfigError("multi-tenant round needs at least one tenant")
        env = Environment()
        fabric = self.build_fabric(env)
        installed = [
            self._install(env, fabric, updates, plan, record_timeline, label=f"t{i}")
            for i, (updates, plan) in enumerate(tenants)
        ]

        def _settled(tenant: TenantRound):
            # Fires when the tenant's round either completes or aborts; an
            # abort is defused here so it cannot crash the shared run loop.
            done = env.event()

            def on_top(ev) -> None:
                if not ev._ok:
                    ev.defuse()
                done.succeed()

            tenant.top_done.callbacks.append(on_top)
            return done

        try:
            if injector is not None:
                injector.install(env=env, fabric=fabric, engine=self, tenants=installed)
            env.run(until=env.all_of([_settled(t) for t in installed]))
        except Exception:
            # Same warm-pool reclamation as run_round: a rejected plan (or
            # an engine error) must not leak the tenants' warm slots, and
            # never-created instances must not become phantom warm pods.
            for tenant in installed:
                self.lifecycle.end_round(self.config, _created_per_node(tenant.instances))
            raise
        return [self.finish_round(tenant, include_eval) for tenant in installed]

    # ------------------------------------------------------------ installation
    def build_fabric(self, env: Environment) -> Fabric:
        """The shared NIC fabric every round installed on ``env`` contends
        on; arrival-driven serving loops build one per replay."""
        fabric = Fabric(env, self.node_spec.nic_bps)
        overrides = self.nic_bps_by_node
        for name in self.node_names:
            fabric.register_node(name, overrides.get(name) if overrides else None)
        return fabric

    def install_round(
        self,
        env: Environment,
        fabric: Fabric,
        updates: list[SimUpdate],
        plan: HierarchyPlan,
        record_timeline: bool = False,
        label: str = "",
    ) -> TenantRound:
        """Install one round on a running (or not-yet-started) environment.

        Update ``arrival_time``\\ s are *relative to the install instant*
        (``env.now``), so an arrival-driven serving loop can admit rounds as
        trace events fire and overlap them on the shared ``fabric``.  The
        caller waits on the returned round's ``top_done`` event and then
        settles it with :meth:`finish_round`.
        """
        return self._install(env, fabric, updates, plan, record_timeline, label=label)

    def finish_round(
        self,
        tenant: TenantRound,
        include_eval: bool = False,
        start_time: float = 0.0,
    ) -> RoundResult:
        """Settle one installed round after its ``top_done`` event fired.

        ``start_time`` is the environment time the round was installed at —
        the result's ACT is reported relative to it, so a round admitted
        mid-replay measures its own duration, not the replay clock.  An
        aborted round (failed ``top_done``) gets ``aborted=True``, ACT 0,
        and only its actually-created instances restocked into the warm
        pool, exactly as in :meth:`run_multi_tenant`.
        """
        if start_time:
            # Instance stats were stamped in absolute environment time;
            # shift them onto the round's own clock so the reserved-CPU
            # accounting (active = finished - created) and timeline stamps
            # in _finalize share the install-relative base of ``act``.
            for inst in tenant.instances.values():
                stats = inst.stats
                if stats.created_at > 0.0:
                    stats.created_at = max(0.0, stats.created_at - start_time)
                if stats.ready_at > 0.0:
                    stats.ready_at = max(0.0, stats.ready_at - start_time)
                if stats.finished_at > 0.0:
                    stats.finished_at = max(0.0, stats.finished_at - start_time)
        if tenant.top_done.ok:
            tenant.result.act = float(tenant.top_done.value) - start_time
            self._finalize(tenant, include_eval)
            self.lifecycle.end_round(self.config, _instances_per_node(tenant.plan))
        else:
            tenant.result.aborted = True
            tenant.result.act = 0.0
            self._finalize(tenant, include_eval=False)
            self.lifecycle.end_round(self.config, _created_per_node(tenant.instances))
        return tenant.result

    def _install(
        self,
        env: Environment,
        fabric: Fabric,
        updates: list[SimUpdate],
        plan: HierarchyPlan,
        record_timeline: bool = True,
        label: str = "",
        local_nodes: "frozenset[str] | set[str] | None" = None,
        boundary_emit: "Callable[[str, str, float, float], None] | None" = None,
        remote_inputs: "Sequence[tuple[str, str, float, float]] | None" = None,
        arrival_span: float | None = None,
    ) -> TenantRound:
        """Build one round's processes and resources on ``env``/``fabric``
        without running it; returns the :class:`TenantRound` handle.

        The last four parameters are the partitioned-cohort hooks (see
        :mod:`repro.core.partition`); all default to the classic
        whole-round install:

        * ``local_nodes`` — instantiate only the plan's aggregators on
          these nodes.  ``updates`` must already be filtered to them.
        * ``boundary_emit(agg_id, node, weight, emit_at)`` — called when a
          local aggregator's parent lives off-partition; the round's
          ``top_done`` fires once every local boundary child has emitted.
        * ``remote_inputs`` — ``(agg_id, src_node, weight, emit_at)``
          intermediates recorded by other partitions, replayed here as
          inter-node transfers into the (local) top aggregator with the
          exact dataplane path a same-environment transfer takes.
        * ``arrival_span`` — the full round's arrival window, forwarded to
          the ingress stage so per-cohort gateway scaling sees the global
          load, not the cohort's slice.
        """
        if not updates:
            raise ConfigError("round needs at least one update")
        if not plan.aggregators:
            raise ConfigError("round needs a non-empty hierarchy plan")
        sizes = {u.nbytes for u in updates}
        if len(sizes) != 1:
            raise ConfigError("all updates in a round must share one model size")
        nbytes = sizes.pop()
        costs = self._costs_for(nbytes)
        cfg = self.config
        if local_nodes is not None:
            stray = {u.node for u in updates} - set(local_nodes)
            if stray:
                raise ConfigError(
                    f"partitioned install got updates for foreign nodes {sorted(stray)}"
                )

        timeline = EventLog()
        touched = self._touched_nodes(updates, plan, local_nodes, remote_inputs)
        nodes = {name: CpuAccount() for name in touched}

        # -- ingress resources ---------------------------------------------
        ingress_res: dict[str, Resource] = self.ingress.build_resources(
            env, cfg, self.cal, touched, updates, nbytes,
            arrival_span=arrival_span,
        )

        # -- instances --------------------------------------------------------
        result = RoundResult(act=0.0, completion_time=0.0, timeline=timeline)
        top_done = env.event()
        instances: dict[str, AggregatorInstance] = {}
        finished_on_node: dict[str, int] = {}
        # Partitioned install: how many local instances emit to an
        # off-partition parent; their last emission is this phase's "done".
        boundary = {"expected": 0, "seen": 0}

        record = timeline.record if record_timeline else None

        def on_output(inst: AggregatorInstance, weight: float, now: float) -> None:
            finished_on_node[inst.node] = finished_on_node.get(inst.node, 0) + 1
            spec = plan.aggregators[inst.agg_id]
            if spec.role is Role.TOP:
                result.total_weight = weight
                if not top_done.triggered:  # an aborting round may already
                    top_done.succeed(now)   # have failed the event
                return
            parent_spec = plan.aggregators[spec.parent]
            if local_nodes is not None and parent_spec.node not in local_nodes:
                # The parent runs in another partition: hand the
                # intermediate to the cohort protocol instead of a
                # same-environment transfer.
                boundary_emit(inst.agg_id, inst.node, weight, now)
                boundary["seen"] += 1
                if boundary["seen"] >= boundary["expected"] and not top_done.triggered:
                    top_done.succeed(now)
                return
            parent = instances[parent_spec.agg_id]
            if inst.node == parent_spec.node:
                # Intra-node hand-off is a single fixed-latency hop — a
                # flat callback on one timer.
                _intra_transfer(inst, parent, weight)
            else:
                DeliveryFlow(ctx, parent, inst.node, weight, inst.agg_id).start(0.0)

        def _intra_transfer(child: AggregatorInstance, parent: AggregatorInstance, weight: float) -> None:
            src = child.node
            t0 = env._now

            def done(_event) -> None:
                nodes[src].charge("dataplane", costs.intra_cpu)
                if record is not None:
                    record(child.agg_id, "network", t0, env._now)
                _deliver(parent, MailboxItem(weight, child.agg_id, True, env._now))

            env.timeout(costs.intra_latency).callbacks.append(done)

        def _deliver(inst: AggregatorInstance, item: MailboxItem) -> None:
            if not cfg.prewarm:
                _create(inst)
            inst.deliver(item)

        admission = self.lifecycle.begin_round(env.now)

        def _create(inst: AggregatorInstance) -> None:
            self.lifecycle.ensure_created(inst, env, cfg, finished_on_node, admission)

        ctx = _FlowContext(env, fabric, ingress_res, nodes, costs, nbytes, record, result, _deliver)

        agg_costs = AggregatorCosts(
            recv_client_latency=costs.recv_client_latency,
            recv_client_cpu=costs.recv_client_cpu,
            agg_latency=costs.agg_latency,
            agg_cpu=costs.agg_cpu,
            startup_latency=cfg.cold_start_latency,
            startup_cpu=cfg.cold_start_cpu,
        )
        for agg_id, spec in plan.aggregators.items():
            if local_nodes is not None and spec.node not in local_nodes:
                continue
            parent = spec.parent
            if (
                local_nodes is not None
                and parent
                and plan.aggregators[parent].node not in local_nodes
            ):
                if boundary_emit is None:
                    raise ConfigError(
                        "partitioned install crosses the partition but no "
                        "boundary_emit was given"
                    )
                boundary["expected"] += 1
            inst = AggregatorInstance(
                env=env,
                agg_id=agg_id,
                node=spec.node,
                role=spec.role.value,
                fan_in=spec.fan_in,
                costs=agg_costs,
                eager=cfg.eager,
                charge_cpu=nodes[spec.node].charge,
                on_output=on_output,
                record=record,
            )
            instances[agg_id] = inst

        top_is_local = local_nodes is None or plan.top.node in local_nodes
        if not top_is_local and boundary["expected"] == 0:
            raise ConfigError(
                "partitioned install has no boundary children — the phase "
                "could never settle"
            )

        if cfg.prewarm:
            for inst in instances.values():
                _create(inst)

        # -- remote intermediates (partitioned root phase) -----------------
        if remote_inputs:
            if not top_is_local:
                raise ConfigError("remote_inputs require the top aggregator locally")
            top = instances[plan.top.agg_id]
            # Another partition's recorded emission takes the exact
            # inter-node path a same-environment transfer takes.
            for agg_id, src_node, weight, emit_at in remote_inputs:
                DeliveryFlow(ctx, top, src_node, weight, agg_id).start(emit_at)

        # -- update ingress flows ----------------------------------------------
        leaf_assignment = _assign_updates_to_leaves(
            updates, plan, locality_aware=cfg.locality_aware
        )

        def _spawn_ingress(update: SimUpdate, delay: float) -> DeliveryFlow:
            return DeliveryFlow(
                ctx, instances[leaf_assignment[update.uid]], update.node,
                update.weight, update.client_id, update,
            ).start(delay)

        # The ingress stage decides arrival scheduling: one heap entry per
        # update (default), or a coalescing walker that wakes batches
        # (``gateway-coalesced``).  A coalescing stage fills this dict as
        # arrivals fire, so chaos hooks see only already-arrived updates.
        ingress_procs: dict[int, DeliveryFlow] = self.ingress.install_arrivals(
            env, updates, _spawn_ingress
        )

        tenant = TenantRound(
            label=label,
            updates=updates,
            plan=plan,
            nbytes=nbytes,
            nodes=nodes,
            instances=instances,
            ingress_procs=ingress_procs,
            leaf_assignment=leaf_assignment,
            top_done=top_done,
            result=result,
            record=record,
            create=_create,
            flows=ctx,
        )
        return tenant

    def _touched_nodes(
        self,
        updates: list[SimUpdate],
        plan: HierarchyPlan,
        local_nodes: "frozenset[str] | set[str] | None",
        remote_inputs: "Sequence[tuple[str, str, float, float]] | None",
    ) -> list[str]:
        """Every node one install can charge or admit on, in fleet order:
        its (local) aggregators' nodes, the top node (chain overhead and
        eval bill it even off-partition), the updates' nodes and the
        remote-input sources.  Untouched nodes would only hold empty
        ledgers, so skipping them leaves every fold over ``nodes``
        unchanged."""
        touched = {u.node for u in updates}
        touched.add(plan.top.node)
        for spec in plan.aggregators.values():
            if local_nodes is None or spec.node in local_nodes:
                touched.add(spec.node)
        if remote_inputs:
            touched.update(src for _, src, _, _ in remote_inputs)
        rank = self._fleet_rank
        unknown = touched - rank.keys()
        if unknown:
            raise ConfigError(f"round touches nodes outside the fleet: {sorted(unknown)}")
        return sorted(touched, key=rank.__getitem__)

    # ------------------------------------------------------------- bookkeeping
    def _finalize(self, tenant: TenantRound, include_eval: bool) -> None:
        """Post-run accounting for one installed round (eval task, chain
        overhead, instance stats, CPU ledgers)."""
        cfg = self.config
        result = tenant.result
        plan = tenant.plan
        nodes = tenant.nodes
        updates = tenant.updates
        instances = tenant.instances
        record = tenant.record
        if include_eval:
            top_node = plan.top.node
            nodes[top_node].charge("eval", self.cal.eval_task_cpu)
            if record is not None:
                record(plan.top.agg_id, "eval", result.act, result.act + self.cal.eval_task_latency)
            result.completion_time = result.act + self.cal.eval_task_latency
        else:
            result.completion_time = result.act
        chain = len(updates) * (
            cfg.chain_overhead_fixed_per_update + cfg.chain_overhead_per_byte * tenant.nbytes
        )
        if chain > 0:
            # Serialized distribution/scale-up overhead (see PlatformConfig).
            if record is not None:
                record("control", "network", result.completion_time, result.completion_time + chain)
            nodes[plan.top.node].charge("chain", chain * cfg.chain_overhead_cores)
            result.completion_time += chain

        # -- bookkeeping ---------------------------------------------------------------
        result.updates_aggregated = len(updates)
        result.nodes_used = len({u.node for u in updates})
        for inst in instances.values():
            if inst.stats.finished_at == 0.0:
                inst.stats.finished_at = result.act
            result.instances.append(inst.stats)
        result.aggregators_created = sum(1 for i in result.instances if i.cold_start)
        result.aggregators_reused = sum(1 for i in result.instances if i.reused)
        for account in nodes.values():
            for comp, secs in account.buckets.items():
                result.cpu_by_component[comp] = result.cpu_by_component.get(comp, 0.0) + secs
        result.cpu_reserved = self._reserved_cpu(result)
        if tenant.chaos_active:
            # Under fault injection the static ``len(updates)`` overstates
            # what survived; report what the tree actually folded in.
            result.updates_aggregated = sum(
                i.stats.client_updates for i in instances.values()
            )
            result.aggregator_restarts = sum(
                i.stats.restarts for i in instances.values()
            )
            result.clients_dropped = tenant.clients_dropped

    def _reserved_cpu(self, result: RoundResult) -> float:
        cfg = self.config
        duration = result.completion_time
        reserved = 0.0
        if cfg.fixed_instances > 0:
            # SF: always-on allocation for the full round, idle or not.
            reserved += cfg.fixed_instances * cfg.instance_reserved_cores * duration
        else:
            for inst in result.instances:
                active = max(0.0, inst.finished_at - inst.created_at)
                # Containers stay allocated until the autoscaler's stable
                # window expires (Knative scale-down), not just while busy.
                held = max(active, cfg.sidecar_linger)
                reserved += cfg.instance_reserved_cores * held
                reserved += cfg.sidecar_reserved_cores * held
                if cfg.reuse and cfg.warm_idle_reserved_cores > 0:
                    # Warm pooled pods keep their (small) allocation after
                    # finishing, waiting for the next round's reuse (§5.3).
                    reserved += cfg.warm_idle_reserved_cores * max(
                        0.0, duration - inst.finished_at
                    )
        # Broker reservation is a config-level knob (zero on gateway
        # presets); the stage adds its own stateful components' tax.
        reserved += cfg.broker_reserved_cores * duration
        reserved += self.ingress.reserved_cpu(cfg, duration, result.nodes_used)
        return reserved


@dataclass(slots=True)
class _FlowContext:
    """What every delivery flow of one installed round shares."""

    env: Environment
    fabric: Fabric
    ingress_res: dict[str, Resource]
    nodes: dict[str, CpuAccount]
    costs: _CostTable
    nbytes: float
    record: Optional[Callable[[str, str, float, float], None]]
    result: RoundResult
    deliver: Callable[[AggregatorInstance, MailboxItem], None]
    #: see :attr:`TenantRound.on_delivery`
    on_delivery: Optional[Callable[[SimUpdate], None]] = None


#: what a delivery flow waits on (``DeliveryFlow.pc``): its arrival, its
#: emission, a gateway slot, the gateway step, the hop's tx serialization,
#: the fabric, an rx admission slot and the rx step; then done
(
    _ARRIVAL, _EMISSION, _GATEWAY_SLOT, _GATEWAY, _TX, _FABRIC, _RX_SLOT, _RX,
    _DELIVERED,
) = range(9)


class DeliveryFlow:
    """One item's way into an aggregator's mailbox, run as kernel callbacks.

    A client update *arrives*: it takes a gateway slot on its node, pays
    the ingress step, and — when its leaf lives on another node
    (locality-agnostic placement, §2.3) — makes one inter-node hop.  A
    child's intermediate update is *emitted* straight onto the hop: tx
    serialization, the shared fabric, an admission slot on the
    destination node's ingress resource and the rx step.

    Every wait registers :meth:`_resume` on the event it waits for, with
    ``pc`` naming what it waits on.  Ingress flows are the chaos handles
    of :attr:`TenantRound.ingress_procs`: :meth:`interrupt` drops the
    client, releasing any admission slot the flow holds or queues for.
    """

    __slots__ = (
        "ctx", "inst", "src", "weight", "source", "update", "pc", "wait", "held",
        "t0", "label", "defused",
    )

    def __init__(
        self,
        ctx: _FlowContext,
        inst: AggregatorInstance,
        src: str,
        weight: float,
        source: str,
        update: Optional[SimUpdate] = None,
    ) -> None:
        self.ctx = ctx
        self.inst = inst
        self.src = src
        self.weight = weight
        self.source = source
        #: the client update an ingress flow carries (None: intermediate)
        self.update = update
        self.pc = _DELIVERED
        self.wait: Optional[Event] = None
        #: the admission request held or queued for, released on a drop
        self.held = None
        self.t0 = 0.0
        self.label = source
        self.defused = False

    def start(self, delay: float) -> "DeliveryFlow":
        """Start the flow ``delay`` seconds from now: an update's ingress
        path, or an intermediate's hop."""
        self.pc = _EMISSION if self.update is None else _ARRIVAL
        self.wait = start = Timeout(self.ctx.env, delay)
        start.callbacks.append(self._resume)
        return self

    # -- chaos handle ----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return self.pc != _DELIVERED

    def defuse(self) -> None:
        """Mark the drop as expected: :meth:`interrupt` then ends the flow
        quietly instead of raising :class:`Interrupt` out of the run."""
        self.defused = True

    def interrupt(self, cause: object = None) -> None:
        """Drop the flow at the current instant (one wake event)."""
        if self.pc == _DELIVERED:
            return
        wake = Event(self.ctx.env)
        wake.callbacks.append(self._kill)
        wake.succeed(cause)

    def _kill(self, wake: Event) -> None:
        pc = self.pc
        if pc == _DELIVERED:
            return  # delivered before the wake fired
        wait = self.wait
        if pc <= _EMISSION:
            self.ctx.env.cancel(wait)  # never started
        else:
            wait.callbacks.remove(self._resume)
        held = self.held
        if held is not None:
            held.resource.release(held)
            self.held = None
        self.pc = _DELIVERED
        self.wait = None
        if not self.defused:
            raise Interrupt(wake._value)

    # -- the flow --------------------------------------------------------------
    def _await(self, event: Event, pc: int) -> None:
        self.pc = pc
        self.wait = event
        event.callbacks.append(self._resume)

    def _resume(self, _event: Event) -> None:
        ctx = self.ctx
        env = ctx.env
        costs = ctx.costs
        pc = self.pc
        if pc == _ARRIVAL:
            self.held = ctx.ingress_res[self.src].request()
            self._await(self.held, _GATEWAY_SLOT)
        elif pc == _GATEWAY_SLOT:
            self.t0 = env._now
            self._await(Timeout(env, costs.ingress_latency), _GATEWAY)
        elif pc == _GATEWAY:
            src = self.src
            ctx.ingress_res[src].release(self.held)
            self.held = None
            ctx.nodes[src].charge("ingress", costs.ingress_cpu)
            if ctx.record is not None:
                ctx.record(f"{src}/gw", "network", self.t0, env._now)
            if self.inst.node == src:
                self._deliver()
            else:
                # The update was queued on one node but its aggregator
                # pod lives on another: one full inter-node hop first.
                self.label = f"u{self.update.uid}"
                self._hop()
        elif pc == _EMISSION:
            self.t0 = env._now
            self._hop()
        elif pc == _TX:
            ctx.nodes[self.src].charge("dataplane", costs.inter_tx_cpu)
            self._await(
                ctx.fabric.transfer(self.src, self.inst.node, ctx.nbytes, label=self.label),
                _FABRIC,
            )
        elif pc == _FABRIC:
            self.held = ctx.ingress_res[self.inst.node].request()
            self._await(self.held, _RX_SLOT)
        elif pc == _RX_SLOT:
            self._await(Timeout(env, costs.inter_rx_latency), _RX)
        else:  # _RX
            dst = self.inst.node
            ctx.ingress_res[dst].release(self.held)
            self.held = None
            ctx.nodes[dst].charge("dataplane", costs.inter_rx_cpu)
            if ctx.record is not None:
                ctx.record(self.label, "network", self.t0, env._now)
            self._deliver()

    def _hop(self) -> None:
        """Enter the inter-node hop — the one path an update on a foreign
        leaf, a child's intermediate and a remote partition's input take."""
        self.ctx.result.cross_node_transfers += 1
        self._await(Timeout(self.ctx.env, self.ctx.costs.inter_tx_latency), _TX)

    def _deliver(self) -> None:
        ctx = self.ctx
        update = self.update
        ctx.deliver(
            self.inst, MailboxItem(self.weight, self.source, update is None, ctx.env._now)
        )
        if update is not None:
            hook = ctx.on_delivery
            if hook is not None:
                hook(update)
        self.pc = _DELIVERED
        self.wait = None


def _assign_updates_to_leaves(
    updates: list[SimUpdate], plan: HierarchyPlan, locality_aware: bool = True
) -> dict[int, str]:
    """Map update uid → leaf aggregator.

    Locality-aware platforms fill the leaves co-located with each update's
    node, in arrival order so early leaves fill (and finish) first (§5.2).
    Locality-agnostic ones fill leaves globally, ignoring where the update
    was queued — the ingress path pays the resulting cross-node hops.
    """
    # Client updates flow into the tree's frontier: aggregators that are no
    # one's parent.  In planned hierarchies that is exactly the leaf level;
    # in a no-hierarchy (NH) plan it is the single top aggregator.
    parents = {s.parent for s in plan.aggregators.values() if s.parent}
    leaves = sorted(
        (s for s in plan.aggregators.values() if s.agg_id not in parents),
        key=lambda s: s.agg_id,
    )
    assignment: dict[int, str] = {}
    ordered = sorted(updates, key=lambda u: (u.arrival_time, u.uid))
    if not locality_aware:
        cursor = _FillCursor(leaves)
        for update in ordered:
            agg_id = cursor.take()
            if agg_id is None:
                raise SimulationError("more updates than total leaf capacity in plan")
            assignment[update.uid] = agg_id
        return assignment
    by_node: dict[str, list] = {}
    for spec in leaves:
        by_node.setdefault(spec.node, []).append(spec)
    cursors = {node: _FillCursor(specs) for node, specs in by_node.items()}
    for update in ordered:
        cursor = cursors.get(update.node)
        if cursor is None:
            raise SimulationError(
                f"update {update.uid} assigned to node {update.node!r} with no leaves"
            )
        agg_id = cursor.take()
        if agg_id is None:
            raise SimulationError(
                f"node {update.node!r}: more updates than leaf capacity in plan"
            )
        assignment[update.uid] = agg_id
    return assignment


class _FillCursor:
    """Consume leaf capacity in declaration order without rescanning
    exhausted leaves (O(U + L) instead of O(U·L))."""

    __slots__ = ("specs", "idx", "left")

    def __init__(self, specs: list) -> None:
        self.specs = specs
        self.idx = 0
        self.left = specs[0].fan_in if specs else 0

    def take(self) -> str | None:
        while self.idx < len(self.specs):
            if self.left > 0:
                self.left -= 1
                return self.specs[self.idx].agg_id
            self.idx += 1
            if self.idx < len(self.specs):
                self.left = self.specs[self.idx].fan_in
        return None


def _instances_per_node(plan: HierarchyPlan) -> dict[str, int]:
    out: dict[str, int] = {}
    for spec in plan.aggregators.values():
        out[spec.node] = out.get(spec.node, 0) + 1
    return out


def _created_per_node(instances: dict) -> dict[str, int]:
    """Warm-reclaimable instances of a *failed* round: only those that
    actually came up (reactive rounds may abort with most of the plan
    never created)."""
    out: dict[str, int] = {}
    for inst in instances.values():
        if inst._created:  # noqa: SLF001 - engine owns its instances
            out[inst.node] = out.get(inst.node, 0) + 1
    return out


def required_leaf_capacity(plan: HierarchyPlan) -> dict[str, int]:
    """Total client-update capacity of each node's leaves (plan checking)."""
    out: dict[str, int] = {}
    for spec in plan.aggregators.values():
        if spec.role is Role.LEAF:
            out[spec.node] = out.get(spec.node, 0) + spec.fan_in
    return out
