"""Platform configurations: LIFL, SF, SL, and Fig. 8's SL-H.

:class:`PlatformConfig` is the single knob panel the round engine reads.
The four presets encode the paper's systems:

====================  ==========  =========  ==========  =========
behaviour             LIFL        SF         SL          SL-H
====================  ==========  =========  ==========  =========
data plane            shm         kernel     broker+SC   shm
ingress               gateway     broker     broker      gateway
placement             BestFit     static     WorstFit    WorstFit
hierarchy planning    EWMA ②      static     reactive    reactive
instance creation     prewarm     always-on  reactive    reactive
runtime reuse ③       yes         n/a        no          no
aggregation timing ④  eager       eager      lazy        lazy
====================  ==========  =========  ==========  =========

:class:`AggregationPlatform` wraps a config + round engine + the *real*
control-plane code (the ``placement`` policy named by
``PlatformConfig.placement_policy``, the hierarchy planner, warm pool
accounting) into the object the experiments drive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.cluster.node import NodeSpec
from repro.common.errors import ConfigError
from repro.controlplane.hierarchy import (
    AggregatorSpec,
    HierarchyPlan,
    Role,
    plan_hierarchy,
)
from repro.controlplane.placement import NodeCapacity
from repro.core.policies import resolve_policy
from repro.core.results import RoundResult
from repro.core.updates import SimUpdate
from repro.dataplane.calibration import DEFAULT_CALIBRATION, DataplaneCalibration
from repro.dataplane.pipelines import PipelineKind


class IngressKind(str, Enum):
    GATEWAY = "gateway"  # LIFL: per-node gateway into shared memory
    BROKER = "broker"  # SF/SL: shared stateful broker


@dataclass(frozen=True)
class PlatformConfig:
    """Everything the round engine needs to emulate one system."""

    name: str
    pipeline: PipelineKind
    ingress: IngressKind
    #: bin-packing policy name from the ``"placement"`` family of
    #: :mod:`repro.core.policies` (``bestfit``/``firstfit``/``worstfit``)
    placement_policy: str = "bestfit"
    #: ① locality-aware placement: aggregators are placed on the nodes
    #: where their input updates were queued (data-centric, §5.1).  When
    #: False (the Knative baselines, §2.3 "Locality-agnostic placement"),
    #: leaf pods land round-robin regardless of where updates arrived, so
    #: most updates pay an extra inter-node hop to reach their aggregator.
    locality_aware: bool = True
    planned_hierarchy: bool = True  # ② per-node middles sized from queue
    prewarm: bool = True  # create planned instances at round start
    reuse: bool = True  # ③ warm pool + role conversion
    eager: bool = True  # ④ aggregation timing
    updates_per_leaf: int = 2  # the paper's I
    cold_start_latency: float = 2.0
    cold_start_cpu: float = 1.0
    ramp_delay: float = 0.0  # reactive autoscaler step (SL)
    broker_cores: int = 2
    gateway_max_cores: int = 8
    #: static tree for SF: (leaf nodes, updates spread round-robin)
    fixed_instances: int = 0
    static_leaf_nodes: int = 0
    # reservation rates (cores) for the reserved-allocation CPU account
    instance_reserved_cores: float = 0.12
    sidecar_reserved_cores: float = 0.0
    broker_reserved_cores: float = 0.0
    gateway_reserved_cores: float = 0.1
    #: serialized per-round control/data-plane overhead that does NOT
    #: overlap the arrival phase: global-model distribution through the
    #: central selector (SF), scale-from-zero churn and indirect function
    #: chaining (SL).  Charged per aggregated update as
    #: ``fixed + per_byte × nbytes`` on top of the simulated round; LIFL's
    #: per-node gateways parallelize distribution, so its term is zero.
    #: Calibrated like the hop costs — see dataplane/calibration.py's
    #: docstring and EXPERIMENTS.md.
    chain_overhead_fixed_per_update: float = 0.0
    chain_overhead_per_byte: float = 0.0
    chain_overhead_cores: float = 1.0
    #: containers linger after their work before scale-down (Knative's
    #: stable window); their pod + sidecar allocation is held that long
    sidecar_linger: float = 0.0
    #: idle-but-warm pooled runtimes still hold their pod allocation
    #: (only the eBPF sidecar is free); LIFL pays this small keep-warm tax
    warm_idle_reserved_cores: float = 0.0
    #: explicit ``ingress`` policy name (see repro.core.stages).  Empty
    #: string means "derive from (ingress, pipeline)".  Scenarios register
    #: new ingress variants and select them here without touching the
    #: round engine.
    ingress_stage: str = ""

    def __post_init__(self) -> None:
        if self.updates_per_leaf < 1:
            raise ConfigError("updates_per_leaf must be >= 1")
        if self.cold_start_latency < 0 or self.ramp_delay < 0:
            raise ConfigError("latencies must be non-negative")

    # -- presets ---------------------------------------------------------------
    @staticmethod
    def lifl(**overrides: object) -> "PlatformConfig":
        """Full LIFL: ①+②+③+④ on the shm data plane."""
        cfg = PlatformConfig(
            name="lifl",
            pipeline=PipelineKind.LIFL,
            ingress=IngressKind.GATEWAY,
            warm_idle_reserved_cores=0.05,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @staticmethod
    def serverful(leaf_nodes: int = 4, instances: int = 60, **overrides: object) -> "PlatformConfig":
        """SF (Bonawitz/PAPAYA style): static always-on tree, kernel/gRPC
        data plane, broker-mediated ingress (Fig. 5 "Microservice")."""
        cfg = PlatformConfig(
            name="sf",
            pipeline=PipelineKind.SERVERFUL,
            ingress=IngressKind.BROKER,
            placement_policy="worstfit",  # spread over the static leaf nodes
            planned_hierarchy=False,
            prewarm=True,  # always-on == always warm
            reuse=True,  # never restarted
            eager=True,
            cold_start_latency=0.0,
            cold_start_cpu=0.0,
            fixed_instances=instances,
            static_leaf_nodes=leaf_nodes,
            instance_reserved_cores=0.05,
            broker_reserved_cores=1.5,
            gateway_reserved_cores=0.0,
            chain_overhead_fixed_per_update=0.32,
            chain_overhead_per_byte=0.8e-9,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @staticmethod
    def serverless(**overrides: object) -> "PlatformConfig":
        """SL (FedKeeper/AdaFed style on Knative): broker + container
        sidecars, reactive threshold scaling, lazy aggregation."""
        cfg = PlatformConfig(
            name="sl",
            pipeline=PipelineKind.SERVERLESS,
            ingress=IngressKind.BROKER,
            placement_policy="worstfit",
            locality_aware=False,
            planned_hierarchy=False,
            prewarm=False,  # scale from zero, reactively
            reuse=False,
            eager=False,
            ramp_delay=6.0,
            updates_per_leaf=4,  # Knative-style concurrency target
            instance_reserved_cores=0.14,
            sidecar_reserved_cores=0.35,
            broker_reserved_cores=2.0,
            gateway_reserved_cores=0.0,
            chain_overhead_fixed_per_update=0.78,
            chain_overhead_per_byte=5.0e-9,
            sidecar_linger=90.0,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @staticmethod
    def sl_h(**overrides: object) -> "PlatformConfig":
        """Fig. 8's baseline: LIFL's shm data plane under a vanilla
        serverless control plane (least connection spread, reactive cold
        starts, lazy aggregation, no reuse)."""
        cfg = PlatformConfig(
            name="sl-h",
            pipeline=PipelineKind.LIFL,
            ingress=IngressKind.GATEWAY,
            placement_policy="worstfit",
            locality_aware=False,
            planned_hierarchy=True,  # hierarchical, but reactively created
            prewarm=False,
            reuse=False,
            eager=False,
        )
        return replace(cfg, **overrides) if overrides else cfg


class AggregationPlatform:
    """A configured system: placement + hierarchy + the round engine."""

    def __init__(
        self,
        config: PlatformConfig,
        node_names: list[str] | None = None,
        cal: DataplaneCalibration = DEFAULT_CALIBRATION,
        node_spec: NodeSpec | None = None,
        nic_bps_by_node: dict[str, float] | None = None,
    ) -> None:
        from repro.core.roundsim import RoundEngine  # cycle-free late import

        self.config = config
        self.node_names = [f"node{i}" for i in range(5)] if node_names is None else node_names
        self.node_spec = node_spec or NodeSpec(name="template")
        self.cal = cal
        self.placement = resolve_policy("placement", config.placement_policy)
        self.engine = RoundEngine(
            config, self.node_names, cal, self.node_spec, nic_bps_by_node=nic_bps_by_node
        )
        self._round = 0

    # -- one full round: place, plan, simulate --------------------------------
    def _candidate_nodes(self, nodes: list[str] | None) -> list[str]:
        """Validate an optional placement restriction: a non-empty subset
        of the fleet, returned in fleet order (so a caller-supplied order
        never perturbs deterministic placement)."""
        if nodes is None:
            return self.node_names
        allowed = set(nodes)
        unknown = allowed - set(self.node_names)
        if unknown:
            raise ConfigError(f"placement restricted to unknown nodes {sorted(unknown)}")
        names = [n for n in self.node_names if n in allowed]
        if not names:
            raise ConfigError("placement restriction excludes every node")
        return names

    def place_updates(
        self,
        arrivals: list[tuple[float, float]],
        nbytes: float,
        nodes: list[str] | None = None,
    ) -> list[SimUpdate]:
        """Turn (arrival_time, weight) pairs into node-assigned updates.

        ``nodes`` restricts placement to a subset of the fleet — the
        chaos-aware control plane passes the currently-healthy nodes so
        new rounds route around degraded or partitioned ones.
        """
        capacities = [
            NodeCapacity(name, self.node_spec.max_service_capacity)
            for name in self._candidate_nodes(nodes)
        ]
        if self.config.static_leaf_nodes > 0:
            capacities = capacities[: self.config.static_leaf_nodes]
        plan = self.placement.place(len(arrivals), capacities)
        updates = []
        for uid, ((t, w), node) in enumerate(zip(sorted(arrivals), plan.assignments)):
            updates.append(
                SimUpdate(
                    uid=uid,
                    nbytes=nbytes,
                    weight=w,
                    arrival_time=t,
                    node=node,
                    client_id=f"u{uid}",
                )
            )
        return updates

    def plan_round(
        self, updates: list[SimUpdate], nodes: list[str] | None = None
    ) -> HierarchyPlan:
        """Build this round's tree from the placement outcome.

        Locality-aware platforms put each node's leaves where that node's
        updates were queued.  Locality-agnostic ones (§2.3) let the pod
        scheduler spread leaves round-robin over all nodes, decoupled from
        the data — the engine then charges the extra inter-node hop for
        every update whose leaf landed elsewhere.
        """
        pending: dict[str, int] = {}
        for u in updates:
            pending[u.node] = pending.get(u.node, 0) + 1
        if self.config.static_leaf_nodes > 0:
            return self._static_plan(pending)
        if not self.config.locality_aware:
            names = self._candidate_nodes(nodes)
            total = len(updates)
            k = len(names)
            pending = {
                name: total // k + (1 if i < total % k else 0)
                for i, name in enumerate(names)
            }
            pending = {n: q for n, q in pending.items() if q > 0}
        plan = plan_hierarchy(
            pending,
            updates_per_leaf=self.config.updates_per_leaf,
            round_id=self._round,
        )
        return plan

    def _static_plan(self, pending: dict[str, int]) -> HierarchyPlan:
        """SF's fixed tree: one leaf aggregator per static leaf node, one
        top on the last node (§6.2: 4 leaf/middle nodes + 1 top node)."""
        active = {n: q for n, q in pending.items() if q > 0}
        if not active:
            raise ConfigError("static plan needs at least one update")
        top_node = self.node_names[-1]
        tag = f"r{self._round}"
        plan = HierarchyPlan()
        top_id = f"{tag}/top@{top_node}"
        plan.aggregators[top_id] = AggregatorSpec(
            top_id, Role.TOP, top_node, fan_in=len(active)
        )
        plan.top_node = top_node
        for node, count in sorted(active.items()):
            leaf_id = f"{tag}/leaf@{node}"
            plan.aggregators[leaf_id] = AggregatorSpec(
                leaf_id, Role.LEAF, node, fan_in=count, parent=top_id
            )
        plan.validate()
        return plan

    def prepare_round(
        self,
        arrivals: list[tuple[float, float]],
        nbytes: float,
        nodes: list[str] | None = None,
    ) -> tuple[list[SimUpdate], HierarchyPlan]:
        """Place and plan one round without simulating it.

        This is the control-plane half of :meth:`run_round`; arrival-driven
        serving loops (:mod:`repro.traces.replay`) call it per admitted
        round and hand the result to the engine's ``install_round``.  The
        internal round counter advances so each prepared round gets
        distinct aggregator ids.  ``nodes`` restricts placement to a fleet
        subset (chaos-aware placement); omitted, behaviour is unchanged.
        """
        updates = self.place_updates(arrivals, nbytes, nodes=nodes)
        plan = self.plan_round(updates, nodes=nodes)
        self._round += 1
        return updates, plan

    def run_round(
        self,
        arrivals: list[tuple[float, float]],
        nbytes: float,
        include_eval: bool = True,
        record_timeline: bool = True,
        injector: object | None = None,
    ) -> RoundResult:
        """Place → plan → simulate one round.

        ``injector`` (a :class:`repro.chaos.FaultInjector`) attaches fault
        and recovery processes before the round runs."""
        updates = self.place_updates(arrivals, nbytes)
        plan = self.plan_round(updates)
        result = self.engine.run_round(
            updates,
            plan,
            include_eval=include_eval,
            record_timeline=record_timeline,
            injector=injector,
        )
        self._round += 1
        return result

    def run_multi_tenant(
        self,
        tenant_arrivals: list[list[tuple[float, float]]],
        nbytes: float,
        include_eval: bool = False,
        record_timeline: bool = False,
        injector: object | None = None,
    ) -> list[RoundResult]:
        """Place and plan each tenant's round independently, then simulate
        all of them concurrently on one shared fabric (NIC contention is
        the point; instances/CPU ledgers stay per-tenant)."""
        tenants = [self.prepare_round(arrivals, nbytes) for arrivals in tenant_arrivals]
        return self.engine.run_multi_tenant(
            tenants,
            include_eval=include_eval,
            record_timeline=record_timeline,
            injector=injector,
        )
