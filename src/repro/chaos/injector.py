"""Executing a fault plan against an installed round.

Two cooperating pieces:

* :class:`FaultInjector` — turns a :class:`~repro.chaos.plan.FaultPlan`
  into a timeline process on the round's environment: it kills aggregator
  instances (restarted statelessly through the lifecycle stage), interrupts
  client ingress (dropout waves), and drives the fabric's rate-rescale /
  partition hooks for NIC and straggler windows.
* :class:`RecoveryController` — one per tenant, the paper's §3 recovery
  loop: a :class:`~repro.fl.failures.HeartbeatMonitor` tracks keep-alives
  (clients check in at round start, beat while alive, and go silent when a
  dropout wave kills them), a periodic sweep declares stale clients
  failed, shrinks the affected leaf's aggregation goal (the
  over-provisioning margin absorbs the loss), and aborts the round with a
  typed :class:`~repro.common.errors.RoundAbort` when the survivors can no
  longer cover the quorum.  Rounds therefore never hang: every fault path
  ends in completion or a typed abort.

The injector plugs into :meth:`repro.core.roundsim.RoundEngine.run_round`
(or ``run_multi_tenant``) via the ``injector=`` parameter; the engine calls
``install(env=..., fabric=..., engine=..., tenants=[...])`` after the round
is built but before the clock starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from repro.chaos.plan import ALL_TENANTS, FaultPlan
from repro.cluster.network import Fabric
from repro.common.errors import ChaosError, RoundAbort
from repro.common.rng import make_rng
from repro.core.aggregator import InstanceState
from repro.core.policies import RecoveryContext, resolve_policy
from repro.fl.failures import HeartbeatMonitor
from repro.sim.engine import Environment, Process


@dataclass
class ChaosReport:
    """What the injector actually did to the round (for scenario rows)."""

    crashes_injected: int = 0
    clients_dropped: int = 0
    clients_declared_failed: int = 0
    goal_reductions: int = 0
    nic_events: int = 0
    partition_events: int = 0
    slow_node_events: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class RecoveryController:
    """Per-tenant keep-alive tracking and over-provisioning recovery."""

    def __init__(
        self, env: Environment, tenant, plan: FaultPlan, report: ChaosReport
    ) -> None:
        self.env = env
        self.tenant = tenant
        self.plan = plan
        self.report = report
        self.policy = resolve_policy("recovery", plan.recovery_policy)
        self.monitor = HeartbeatMonitor(timeout=plan.heartbeat_timeout)
        self.delivered: set[int] = set()
        self.dropped: set[int] = set()
        self._uid_by_client = {u.client_id: u.uid for u in tenant.updates}
        now = env.now
        for u in tenant.updates:
            self.monitor.beat(u.client_id, now)  # round-start check-in
        tenant.on_delivery = self._on_delivery
        self.process = Process(env, self._run(), f"recovery:{tenant.label}")

    # -- hooks -------------------------------------------------------------
    def _on_delivery(self, update) -> None:
        self.delivered.add(update.uid)
        if update.uid in self.dropped:
            # A dropout raced a same-instant delivery and lost: the update
            # made it into a mailbox, so the client was not really gone.
            self.dropped.discard(update.uid)
            self.tenant.dropped_uids.discard(update.uid)
            self.tenant.clients_dropped -= 1
            self.report.clients_dropped -= 1
        self.monitor.beat(update.client_id, self.env.now)

    def note_dropped(self, uid: int) -> bool:
        """Record one killed client; returns False if it already delivered."""
        if uid in self.delivered or uid in self.dropped:
            return False
        self.dropped.add(uid)
        self.tenant.dropped_uids.add(uid)
        self.tenant.clients_dropped += 1
        return True

    # -- the §3 recovery loop ----------------------------------------------
    def _run(self):
        env = self.env
        tenant = self.tenant
        plan = self.plan
        monitor = self.monitor
        updates = tenant.updates
        total = len(updates)
        quorum = math.ceil(plan.quorum_fraction * total)
        top_done = tenant.top_done
        while not top_done.triggered:
            yield env.timeout(plan.sweep_interval)
            if top_done.triggered:
                return
            now = env.now
            # Live clients keep sending keep-alives (modelled in one pass:
            # only genuinely dropped clients go silent and age out).
            dropped = self.dropped
            for u in updates:
                if u.uid not in dropped:
                    monitor.beat(u.client_id, now)
            for cid in monitor.sweep(now):
                self.report.clients_declared_failed += 1
                verdict = self.policy.on_client_failed(
                    RecoveryContext(
                        client_id=cid,
                        survivors=total - len(monitor.failed),
                        quorum=quorum,
                        total=total,
                    )
                )
                if verdict == "abort":
                    if not top_done.triggered:
                        top_done.fail(
                            RoundAbort(total - len(monitor.failed), quorum, total)
                        )
                    return
                uid = self._uid_by_client[cid]
                leaf_id = tenant.leaf_assignment[uid]
                inst = tenant.instances[leaf_id]
                if inst.reduce_goal(1):
                    self.report.goal_reductions += 1
                if inst.fan_in == 0 and not inst._created:
                    # Every client of a reactive (create-on-delivery) leaf
                    # died before its first delivery: force the leaf up so
                    # it emits its empty intermediate and the tree unblocks.
                    tenant.create(inst)
            survivors = total - len(monitor.failed)
            if self.policy.should_abort(survivors, quorum, total):
                if not top_done.triggered:
                    top_done.fail(RoundAbort(survivors, quorum, total))
                return


class FaultInjector:
    """Executes one :class:`FaultPlan` against one installed round.

    ``telemetry`` takes a :class:`~repro.telemetry.bus.TelemetryBus` (or
    an already-resolved one); each executed fault action then emits one
    ``chaos-fault`` record, timestamped at the instant the action fired —
    the live-view's chaos windows come from pairing these records.
    """

    def __init__(self, plan: FaultPlan, telemetry=None) -> None:
        plan.validate()
        self.plan = plan
        self.report = ChaosReport()
        self.controllers: list[RecoveryController] = []
        self._telemetry = telemetry.or_none() if telemetry is not None else None
        self._env: Environment | None = None

    def _emit(self, fault: str, target: str, value: float, tenant: int = -1) -> None:
        tel = self._telemetry
        if tel is not None and self._env is not None:
            tel.emit(
                "chaos-fault",
                self._env.now,
                tenant=tenant,
                fault=fault,
                target=target,
                value=value,
            )

    # The engine calls this duck-typed (keyword arguments), so the core
    # never imports the chaos package.
    def install(self, env: Environment, fabric: Fabric, engine, tenants: list) -> None:
        plan = self.plan
        self._env = env
        known_nodes = set(engine.node_names)
        for ev in (*plan.nic_degradations, *plan.slow_nodes):
            if ev.node not in known_nodes:
                raise ChaosError(f"fault targets unknown node {ev.node!r}")
        for part in plan.partitions:
            missing = set(part.nodes) - known_nodes
            if missing:
                raise ChaosError(f"partition targets unknown nodes {sorted(missing)}")
        for ev in (*plan.crashes, *plan.dropouts):
            if ev.tenant != ALL_TENANTS and not 0 <= ev.tenant < len(tenants):
                raise ChaosError(
                    f"fault targets tenant {ev.tenant}, round has {len(tenants)}"
                )

        # Recovery (keep-alive sweeps, goal shrinking, quorum aborts) only
        # matters when clients can actually disappear; for crash/NIC-only
        # plans the controller could provably never act, and its per-sweep
        # O(clients) beat loop would be pure event overhead at stress scale.
        if plan.dropouts:
            self.controllers = [
                RecoveryController(env, tenant, plan, self.report) for tenant in tenants
            ]
        for tenant in tenants:
            tenant.chaos_active = True
        if plan.crashes:
            # Stateless restarts re-read consumed inputs from shm — turn
            # retention on only when something can actually crash.
            for tenant in tenants:
                for inst in tenant.instances.values():
                    inst.retain_inputs = True

        rng = make_rng(plan.seed, "chaos")
        actions: list[tuple[float, int, Callable[[], None]]] = []

        def add(at: float, fn: Callable[[], None]) -> None:
            actions.append((at, len(actions), fn))

        for crash in plan.crashes:
            add(crash.at, lambda ev=crash: self._crash(env, engine, tenants, ev, rng))
        for wave in plan.dropouts:
            add(wave.at, lambda ev=wave: self._dropout(tenants, ev, rng))
        self._add_fabric_actions(fabric, add)
        if actions:
            actions.sort(key=lambda a: (a[0], a[1]))
            Process(env, self._timeline(env, actions), "chaos:timeline")

    def install_fabric(self, env: Environment, fabric: Fabric) -> None:
        """Install only the plan's fabric-level weather — NIC degradation,
        partition windows, slow nodes — with no round attached.

        This is the hook long-horizon serving loops
        (:class:`~repro.traces.replay.TraceReplayEngine`) use: cluster
        weather spans many rounds, so it belongs on the replay's shared
        fabric rather than on any one installed round.  Plans carrying
        round-scoped events (crashes, dropout waves) are refused — those
        need tenants to act on.
        """
        plan = self.plan
        self._env = env
        if plan.crashes or plan.dropouts:
            raise ChaosError(
                "fabric-only install cannot execute crash/dropout events — "
                "install them on a round via install()"
            )
        known_nodes = set(fabric.nodes)
        for ev in (*plan.nic_degradations, *plan.slow_nodes):
            if ev.node not in known_nodes:
                raise ChaosError(f"fault targets unknown node {ev.node!r}")
        for part in plan.partitions:
            missing = set(part.nodes) - known_nodes
            if missing:
                raise ChaosError(f"partition targets unknown nodes {sorted(missing)}")
        actions: list[tuple[float, int, Callable[[], None]]] = []

        def add(at: float, fn: Callable[[], None]) -> None:
            actions.append((at, len(actions), fn))

        self._add_fabric_actions(fabric, add)
        if actions:
            actions.sort(key=lambda a: (a[0], a[1]))
            Process(env, self._timeline(env, actions), "chaos:timeline")

    def _add_fabric_actions(
        self, fabric: Fabric, add: Callable[[float, Callable[[], None]], None]
    ) -> None:
        """Queue the plan's fabric-level events (shared by both installs)."""
        plan = self.plan
        for deg in plan.nic_degradations:
            add(deg.start, lambda n=deg.node, f=deg.factor: self._rescale(fabric, n, f))
            add(deg.end, lambda n=deg.node: self._rescale(fabric, n, 1.0))
        for part in plan.partitions:
            add(part.start, lambda ns=part.nodes: self._partition(fabric, ns))
            add(part.end, lambda ns=part.nodes: self._heal(fabric, ns))
        for slow in plan.slow_nodes:
            factor = 1.0 / slow.slowdown
            add(slow.start, lambda n=slow.node, f=factor: self._slow(fabric, n, f))
            add(slow.end, lambda n=slow.node: self._slow(fabric, n, 1.0))

    # -- fault actions ------------------------------------------------------
    def _timeline(self, env: Environment, actions: list):
        for at, _, action in actions:
            delay = at - env.now
            if delay > 0:
                yield env.timeout(delay)
            action()

    def _crash(self, env, engine, tenants, event, rng: np.random.Generator) -> None:
        candidates = []
        for idx, tenant in enumerate(tenants):
            if event.tenant not in (ALL_TENANTS, idx):
                continue
            for agg_id in sorted(tenant.instances):
                inst = tenant.instances[agg_id]
                if not inst._created or inst.state is InstanceState.FINISHED:
                    continue
                if event.node and inst.node != event.node:
                    continue
                if event.role and inst.role != event.role:
                    continue
                candidates.append(inst)
        if not candidates:
            return
        k = min(event.count, len(candidates))
        picks = sorted(int(p) for p in rng.permutation(len(candidates))[:k])
        for i in picks:
            engine.lifecycle.restart_instance(candidates[i], env, engine.config)
            self.report.crashes_injected += 1
        self._emit("crash", event.node or "any", float(len(picks)))

    def _dropout(self, tenants, wave, rng: np.random.Generator) -> None:
        for idx, (tenant, controller) in enumerate(zip(tenants, self.controllers)):
            if wave.tenant not in (ALL_TENANTS, idx):
                continue
            candidates = sorted(
                uid
                for uid in tenant.ingress_procs
                if uid not in controller.delivered and uid not in controller.dropped
            )
            if not candidates:
                continue
            mask = rng.uniform(size=len(candidates)) < wave.fraction
            dropped = 0
            for uid, hit in zip(candidates, mask):
                if not hit:
                    continue
                if not controller.note_dropped(uid):
                    continue
                proc = tenant.ingress_procs[uid]
                if proc.is_alive:
                    proc.defuse()
                    proc.interrupt("client-dropout")
                self.report.clients_dropped += 1
                dropped += 1
            self._emit(
                "dropout", f"{dropped}/{len(candidates)}", wave.fraction, tenant=idx
            )

    def _rescale(self, fabric: Fabric, node: str, factor: float) -> None:
        fabric.set_node_rate_factor(node, factor)
        self.report.nic_events += 1
        self._emit("nic-rescale", node, factor)

    def _slow(self, fabric: Fabric, node: str, factor: float) -> None:
        fabric.set_node_rate_factor(node, factor)
        self.report.slow_node_events += 1
        self._emit("slow-node", node, factor)

    def _partition(self, fabric: Fabric, nodes) -> None:
        fabric.partition(nodes)
        self.report.partition_events += 1
        self._emit("partition", ",".join(nodes), float(len(nodes)))

    def _heal(self, fabric: Fabric, nodes) -> None:
        fabric.heal(nodes)
        self.report.partition_events += 1
        self._emit("heal", ",".join(nodes), float(len(nodes)))
