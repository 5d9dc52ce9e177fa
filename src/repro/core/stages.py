"""The stages of the round engine.

The round engine composes its behaviour from three stage objects,
mirroring how :mod:`repro.dataplane.pipelines` composes hop sequences:

* :class:`IngressStage` — how client updates enter a node: the
  serialization costs of the ingress and consumer-side paths, the admission
  resources (per-node gateways vs a shared broker), and the reserved-CPU
  tax of the stateful ingress components;
* :class:`TransferStage` — how intermediate updates move between
  aggregators: intra-node and inter-node (tx/rx split) latency and CPU of
  the calibrated dataplane pipeline;
* :class:`LifecycleStage` — when aggregator instances come into existence:
  cold starts, reactive-scaling ramp admission, warm reuse and in-round
  role conversion (owns the cross-round warm pool), and the stateless
  restart of crashed aggregators.

Only ingress is a choice the engine makes per config, so only ingress is
pluggable: it is the ``ingress`` family of
:data:`~repro.core.policies.POLICIES`.  Scenarios register new variants
with ``@policy("ingress", name)`` and select them via
``PlatformConfig.ingress_stage`` without touching
:mod:`repro.core.roundsim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.platform import IngressKind, PlatformConfig
from repro.core.policies import Policy, policy, resolve_policy
from repro.core.updates import SimUpdate
from repro.dataplane.calibration import DataplaneCalibration
from repro.dataplane.gateway import VerticalScaler
from repro.dataplane.pipelines import (
    PipelineKind,
    inter_node_pipeline,
    intra_node_pipeline,
)
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource


# --------------------------------------------------------------------- ingress
@dataclass(frozen=True)
class IngressCosts:
    """Serialization costs of one update entering via this ingress."""

    ingress_latency: float
    ingress_cpu: float
    #: consumer-side cost of the aggregator pulling the update in
    recv_latency: float
    recv_cpu: float


class IngressStage(Policy):
    """How client updates enter a node (Fig. 5's ingress designs)."""

    family = "ingress"

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        """Per-update costs; must be a pure function of its arguments (the
        engine computes them once per model size and reuses them)."""
        raise NotImplementedError

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        """Admission resources, keyed by node (entries may be shared).

        ``node_names`` are the nodes the round touches, in fleet order —
        not necessarily the whole fleet.

        ``arrival_span`` overrides the load-window the stage would compute
        from ``updates`` — a partitioned round hands each cohort the *full*
        round's span so per-shard scaling matches the unpartitioned model.
        """
        raise NotImplementedError

    def install_arrivals(
        self,
        env: Environment,
        updates: list[SimUpdate],
        spawn: Callable[[SimUpdate, float], object],
    ) -> dict[int, object]:
        """Start the per-update ingress work; returns uid → ingress flow.

        ``spawn(update, delay)`` starts one update's ingress flow after
        ``delay`` seconds and returns its handle (a
        :class:`repro.core.roundsim.DeliveryFlow`).  The default is one scheduler
        entry per update — exactly the engine's historical behaviour.
        Stages may coalesce instead (see :class:`CoalescedGatewayIngress`);
        a coalescing stage fills the returned dict lazily, as arrivals
        actually fire.
        """
        procs: dict[int, object] = {}
        for update in updates:
            procs[update.uid] = spawn(update, update.arrival_time)
        return procs

    def reserved_cpu(
        self, cfg: PlatformConfig, duration: float, nodes_used: int
    ) -> float:
        """Reserved-but-idle allocation of the stage's stateful components."""
        return 0.0


@policy("ingress", "gateway")
class GatewayIngress(IngressStage):
    """LIFL: per-node gateway writing into shared memory, vertically scaled
    to the node's offered load (§4.2)."""

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=(cal.gateway_rx_lat_per_byte + cal.shm_write_lat_per_byte)
            * nbytes,
            ingress_cpu=(cal.gateway_rx_cpu_per_byte + cal.shm_write_cpu_per_byte)
            * nbytes,
            recv_latency=cal.shm_read_lat_per_byte * nbytes + cal.skmsg_fixed_lat,
            recv_cpu=cal.shm_read_cpu_per_byte * nbytes + cal.skmsg_fixed_cpu,
        )

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        span = (
            arrival_span
            if arrival_span is not None
            else max(u.arrival_time for u in updates) - min(u.arrival_time for u in updates)
        )
        scaler = VerticalScaler(cal, max_cores=cfg.gateway_max_cores)
        per_node_updates: dict[str, int] = {}
        for u in updates:
            per_node_updates[u.node] = per_node_updates.get(u.node, 0) + 1
        out: dict[str, Resource] = {}
        for name in node_names:
            n_up = per_node_updates.get(name, 0)
            rate_bps = n_up * nbytes / max(span, 1.0)
            out[name] = Resource(env, capacity=scaler.cores_for_load(rate_bps))
        return out

    def reserved_cpu(
        self, cfg: PlatformConfig, duration: float, nodes_used: int
    ) -> float:
        return cfg.gateway_reserved_cores * duration * nodes_used


@policy("ingress", "gateway-coalesced")
class CoalescedGatewayIngress(GatewayIngress):
    """Gateway ingress with batched arrival coalescing (stress scale).

    Identical physics to :class:`GatewayIngress`, but instead of one
    pending scheduler entry per update arrival, a single walker process
    sweeps the arrivals in time order and spawns each update's ingress
    work as its arrival instant is reached — the event heap holds one
    arrival timer at a time instead of one per not-yet-arrived update, and
    a batch of same-instant arrivals is woken by one heap entry.  The cost
    is tie-break order among *exactly simultaneous* events, so the stage
    is opt-in (``ingress_stage="gateway-coalesced"``) rather than the
    gateway default; the million-client scenarios select it.
    """

    def install_arrivals(
        self,
        env: Environment,
        updates: list[SimUpdate],
        spawn: Callable[[SimUpdate, float], object],
    ) -> dict[int, object]:
        procs: dict[int, object] = {}
        ordered = sorted(updates, key=lambda u: (u.arrival_time, u.uid))
        start = env.now

        def walker():
            for update in ordered:
                wait = start + update.arrival_time - env.now
                if wait > 0:
                    yield env.timeout(wait)
                procs[update.uid] = spawn(update, 0.0)

        env.process(walker(), name="ingress:coalesce")
        return procs


class _BrokerIngress(IngressStage):
    """Shared stateful broker in front of every node (SF/SL)."""

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        shared = Resource(env, capacity=cfg.broker_cores)
        return {name: shared for name in node_names}


@policy("ingress", "broker-sf")
class ServerfulBrokerIngress(_BrokerIngress):
    """SF: broker queue + gRPC/deserialize consumer path (Fig. 5
    "Microservice")."""

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=cal.queuing_sf_broker_lat_per_byte * nbytes
            + cal.broker_fixed_lat,
            ingress_cpu=cal.queuing_sf_broker_cpu_per_byte * nbytes
            + cal.broker_fixed_cpu,
            recv_latency=(
                cal.kernel_wire_side_lat_per_byte
                + cal.deserialize_lat_per_byte
                + cal.grpc_lat_per_byte
            )
            * nbytes
            + cal.kernel_fixed_lat,
            recv_cpu=(
                cal.kernel_wire_side_cpu_per_byte
                + cal.deserialize_cpu_per_byte
                + cal.grpc_cpu_per_byte
            )
            * nbytes
            + cal.kernel_fixed_cpu,
        )


@policy("ingress", "broker-sl")
class ServerlessBrokerIngress(_BrokerIngress):
    """SL: broker queue + container-sidecar consumer path (Fig. 5 "Basic
    serverless")."""

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=cal.queuing_broker_lat_per_byte * nbytes
            + cal.broker_fixed_lat,
            ingress_cpu=cal.queuing_broker_cpu_per_byte * nbytes
            + cal.broker_fixed_cpu,
            recv_latency=(
                cal.kernel_wire_side_lat_per_byte
                + cal.sidecar_lat_per_byte
                + cal.deserialize_lat_per_byte
            )
            * nbytes
            + cal.sidecar_fixed_lat,
            recv_cpu=(
                cal.kernel_wire_side_cpu_per_byte
                + cal.sidecar_cpu_per_byte
                + cal.deserialize_cpu_per_byte
            )
            * nbytes
            + cal.sidecar_fixed_cpu,
        )


def resolve_ingress(cfg: PlatformConfig) -> IngressStage:
    """Pick the ingress stage for a config: an explicit ``ingress_stage``
    key wins; otherwise the paper's mapping from (ingress, pipeline)."""
    key = cfg.ingress_stage
    if not key:
        if cfg.ingress is IngressKind.GATEWAY:
            key = "gateway"
        elif cfg.pipeline is PipelineKind.SERVERFUL:
            key = "broker-sf"
        else:
            key = "broker-sl"
    return resolve_policy("ingress", key)


# -------------------------------------------------------------------- transfer
@dataclass(frozen=True)
class TransferCosts:
    """Aggregator→aggregator hop costs for one update size."""

    intra_latency: float
    intra_cpu: float
    inter_tx_latency: float
    inter_tx_cpu: float
    inter_rx_latency: float
    inter_rx_cpu: float


class TransferStage:
    """How intermediate updates travel between aggregators: costs from the
    calibrated dataplane pipelines of ``cfg.pipeline``."""

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> TransferCosts:
        """Per-hop costs; a pure function of its arguments (the engine
        computes them once per model size and reuses them)."""
        intra = intra_node_pipeline(cfg.pipeline, cal).cost(nbytes)
        inter = inter_node_pipeline(cfg.pipeline, cal, include_wire=False).cost(nbytes)
        # Split the inter-node pipeline at the wire: hops before it are
        # tx-side, after it rx-side.  The split is symmetric enough that
        # halving the latency/cpu by group keeps totals exact.
        inter_tx_lat = inter.latency / 2
        inter_tx_cpu = inter.cpu_seconds / 2
        return TransferCosts(
            intra_latency=intra.latency,
            intra_cpu=intra.cpu_seconds,
            inter_tx_latency=inter_tx_lat,
            inter_tx_cpu=inter_tx_cpu,
            inter_rx_latency=inter.latency - inter_tx_lat,
            inter_rx_cpu=inter.cpu_seconds - inter_tx_cpu,
        )


# ------------------------------------------------------------------- lifecycle
@dataclass
class WarmState:
    """Cross-round warm-runtime pool: node → idle warm instance count."""

    idle: dict[str, int] = field(default_factory=dict)

    def take(self, node: str) -> bool:
        n = self.idle.get(node, 0)
        if n > 0:
            self.idle[node] = n - 1
            return True
        return False

    def put(self, node: str, count: int = 1) -> None:
        self.idle[node] = self.idle.get(node, 0) + count

    def total(self) -> int:
        return sum(self.idle.values())


@dataclass
class RoundAdmission:
    """Per-round ramp-admission context.

    ``begin_round`` hands one of these to the installing round; every
    ``ensure_created`` call of that round carries it back.  Keeping the
    ramp counters *per round* (rather than on the engine-lifetime stage)
    makes reactive admission correct for rounds admitted mid-replay: the
    k-th instance on a node is admitted ``k`` ramp periods after *this
    round's* start, and overlapping installed rounds no longer share (and
    clobber) one global counter set.
    """

    round_start: float = 0.0
    created_per_node: dict[str, int] = field(default_factory=dict)


class LifecycleStage:
    """When aggregator instances come into existence: the paper's
    instance-creation policy, warm-pool reuse and in-round role conversion
    (§5.3) plus the reactive autoscaler's stepwise ramp admission (§2.3)
    for configs with ``ramp_delay > 0``, and §3's failure recovery for
    crashed instances.

    The stage is engine-lifetime: it keeps cross-round state (the warm
    pool).  The engine calls :meth:`begin_round` before creating instances
    (receiving a per-round :class:`RoundAdmission` context),
    :meth:`ensure_created` whenever an instance must exist (prewarm or
    first delivery), and :meth:`end_round` after the round settles; fault
    injection calls :meth:`restart_instance`.
    """

    def __init__(self) -> None:
        self.warm = WarmState()

    def begin_round(self, round_start: float = 0.0) -> RoundAdmission:
        return RoundAdmission(round_start=round_start)

    def ensure_created(
        self,
        inst,  # AggregatorInstance; untyped to keep the stage import-light
        env: Environment,
        cfg: PlatformConfig,
        finished_on_node: dict[str, int],
        admission: RoundAdmission | None = None,
    ) -> None:
        if inst._created:  # noqa: SLF001 - engine owns the instance
            return
        reused = cfg.reuse and self.warm.take(inst.node)
        if not reused and cfg.reuse:
            # In-round role conversion (§5.3): a finished local
            # aggregator converts to this higher role with no restart.
            if finished_on_node.get(inst.node, 0) > 0:
                finished_on_node[inst.node] -= 1
                reused = True
        if not reused and cfg.ramp_delay > 0:
            # Reactive autoscaler ramp: the k-th instance on a node is
            # only admitted k ramp periods after *round* start (§2.3's
            # reactive scaling; models Knative's stepwise scale-up).  The
            # round start lives in the admission context, so rounds
            # admitted mid-replay ramp from their own install instant.
            ctx = admission if admission is not None else RoundAdmission()
            k = ctx.created_per_node.get(inst.node, 0)
            ctx.created_per_node[inst.node] = k + 1
            delay = max(0.0, ctx.round_start + k * cfg.ramp_delay - env.now)
            if delay > 0:

                def later(_: Event, inst=inst, reused=reused) -> None:
                    inst.ensure_created(reused=reused)

                env.timeout(delay).callbacks.append(later)
                return
        inst.ensure_created(reused=reused)

    def end_round(self, cfg: PlatformConfig, instances_per_node: dict[str, int]) -> None:
        if cfg.reuse:
            for node, count in instances_per_node.items():
                self.warm.put(node, count)

    def restart_instance(self, inst, env: Environment, cfg: PlatformConfig) -> None:
        """Bring a crashed instance back (§3: stateless aggregators restart
        without state synchronization).  An idle warm runtime on the node
        takes over the crashed instance's mailbox instantly; otherwise the
        replacement pays a cold start.  ``inst.stats`` records which."""
        if cfg.reuse and self.warm.take(inst.node):
            inst.restart(0.0, reused=True)
        else:
            inst.restart(
                cfg.cold_start_latency, reused=False, startup_cpu=cfg.cold_start_cpu
            )
