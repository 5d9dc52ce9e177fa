"""The step-based aggregator (Fig. 14, Appendix G) as kernel callbacks.

One aggregator instance is a multiple-producer, single-consumer pipeline of
three steps:

* **Recv** — take the next item from the FIFO mailbox (in LIFL only the
  object key is enqueued; the payload sits in shared memory) and pay the
  consumer-side receive cost;
* **Agg** — dequeue and fold the update into the running accumulator;
  repeat until the aggregation goal (``fan_in``) is met;
* **Send** — emit the aggregated intermediate update to the parent.

**Eager** aggregation overlaps Recv and Agg: each update is aggregated as it
arrives.  **Lazy** aggregation receives everything first and only then runs
the aggregation burst — the whole difference between Fig. 1(a) and (b), and
the source of the ~20 % ACT gap measured in Fig. 8 (④).

The loop is event-driven, like the paper's data plane: it is no process
of its own but a continuation (:meth:`AggregatorInstance._resume`) that
each wait registers on the event it waits for — the readiness event, a
parked mailbox get, or a Recv/Agg step's timer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.common.errors import SimulationError
from repro.core.results import InstanceStats
from repro.core.updates import MailboxItem
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import Store


class InstanceState(str, Enum):
    PLANNED = "planned"
    STARTING = "starting"
    READY = "ready"
    FINISHED = "finished"
    CRASHED = "crashed"


#: mailbox sentinel depositing a goal re-check: a parked consumer whose
#: aggregation goal shrank (client failures, §3) wakes, re-reads
#: ``fan_in`` and either keeps receiving or emits with what it has.
_GOAL_WAKE = MailboxItem(
    weight=0.0, source="__goal_wake__", is_intermediate=True, enqueued_at=0.0
)


#: where the loop resumes when the event it waits on fires (``_pc``):
#: the start event, the readiness event, a parked mailbox get, the Recv
#: step's timer, the Agg step's timer; ``_DONE`` is no live incarnation
_START, _READY, _GOT, _RECEIVED, _AGGREGATED, _DONE = range(6)
#: loop positions a step moves between without waiting
_TOP, _QUEUE, _AGG, _NEXT = range(6, 10)


@dataclass
class AggregatorCosts:
    """Per-instance latencies/CPU the round engine computed for this system
    and model size."""

    recv_client_latency: float  # consumer-side cost per client update
    recv_client_cpu: float
    agg_latency: float  # aggregation compute per update
    agg_cpu: float
    startup_latency: float  # cold start (0 when warm/reused)
    startup_cpu: float


class AggregatorInstance:
    """One running aggregator in the round simulation."""

    __slots__ = (
        "env", "agg_id", "node", "role", "fan_in", "costs", "eager", "_charge",
        "_on_output", "_record", "mailbox", "state", "stats", "_created",
        "_ready_event", "_total_weight", "retain_inputs", "_consumed",
        # the running incarnation's loop state: ``_pc`` and ``_wait`` (the
        # event the loop waits on) are set at spawn, the rest when it starts
        "_pc", "_wait", "_goal", "_received", "_aggregated", "_pending",
        "_retain", "_item", "_t0",
    )

    def __init__(
        self,
        env: Environment,
        agg_id: str,
        node: str,
        role: str,
        fan_in: int,
        costs: AggregatorCosts,
        eager: bool,
        charge_cpu: Callable[[str, float], None],
        on_output: Callable[["AggregatorInstance", float, float], None],
        record: Callable[[str, str, float, float], None] | None,
    ) -> None:
        """``on_output(instance, total_weight, now)`` fires at Send;
        ``charge_cpu(component, seconds)`` bills the hosting node;
        ``record(actor, kind, start, end)`` feeds the timeline log
        (``None`` disables timeline telemetry for the round)."""
        if fan_in < 1:
            raise SimulationError(f"{agg_id}: fan_in must be >= 1")
        self.env = env
        self.agg_id = agg_id
        self.node = node
        self.role = role
        self.fan_in = fan_in
        self.costs = costs
        self.eager = eager
        self._charge = charge_cpu
        self._on_output = on_output
        self._record = record
        self.mailbox: Store = Store(env)
        self.state = InstanceState.PLANNED
        self.stats = InstanceStats(agg_id=agg_id, node=node, role=role)
        self._created = False
        self._ready_event: Event = Event(env)
        self._total_weight = 0.0
        #: chaos support: when True, every consumed item is retained so a
        #: stateless restart can re-read it (the shm object outlives the
        #: instance).  Off by default — fault-free rounds pay nothing.
        self.retain_inputs = False
        self._consumed: list[MailboxItem] = []
        self._spawn()

    # -- lifecycle ------------------------------------------------------------
    def ensure_created(self, reused: bool = False) -> None:
        """Start the instance now (idempotent).

        With pre-planned hierarchies the engine calls this at round start;
        with reactive scaling it is called on the first mailbox delivery —
        which is what produces the cascading cold-start effect in function
        chains (§2.3).
        """
        if self._created:
            return
        self._created = True
        now = self.env.now
        self.state = InstanceState.STARTING
        self.stats.created_at = now
        self.stats.reused = reused
        startup = 0.0 if reused else self.costs.startup_latency
        self.stats.cold_start = not reused and startup > 0.0
        if self.stats.cold_start:
            self._charge("coldstart", self.costs.startup_cpu)
            if self._record is not None:
                self._record(self.agg_id, "coldstart", now, now + startup)

        if startup == 0.0:
            # Warm/reused instances are ready at once — don't route the
            # no-op startup through a zero-delay timer.
            self.state = InstanceState.READY
            self.stats.ready_at = now
            self._ready_event.succeed()
            return

        ready_event = self._ready_event

        def ready(_: Event) -> None:
            if ready_event is not self._ready_event:
                return  # the instance crashed and restarted mid-startup
            self.state = InstanceState.READY
            self.stats.ready_at = self.env.now
            ready_event.succeed()

        self.env.timeout(startup).callbacks.append(ready)

    def deliver(self, item: MailboxItem) -> None:
        """Producer side: enqueue into the FIFO mailbox (Recv's queue).

        The mailbox is unbounded and no producer waits on the deposit, so
        this takes the event-free path."""
        self.mailbox.put_nowait(item)

    # -- chaos hooks (see repro.chaos) -----------------------------------------
    def reduce_goal(self, by: int = 1) -> bool:
        """Recovery hook (§3 over-provisioning): lower the aggregation goal
        after declared client failures, so the instance can emit with the
        updates that survive.  A consumer parked on an empty mailbox is
        woken with a sentinel to re-check the goal; at goal 0 the instance
        emits a zero-weight intermediate, keeping the tree unblocked.
        Returns True when the goal actually changed."""
        if by <= 0 or self.state is InstanceState.FINISHED:
            return False
        before = self.fan_in
        self.fan_in = max(0, self.fan_in - by)
        if self._created:
            self.mailbox.put_nowait(_GOAL_WAKE)
        return self.fan_in != before

    def _retire(self) -> None:
        """Terminate the running incarnation *synchronously*.

        An async interrupt leaves a window (events already queued at the
        same instant) in which the dead incarnation could keep consuming:
        a same-instant delivery may have handed an item to its parked
        mailbox getter, and a same-instant timeout could re-enter the Agg
        step and corrupt the freshly reset accumulator.  So the kill is
        immediate: cancel a pending start, reclaim any in-flight mailbox
        item back to the queue, and detach the loop's continuation from
        whatever it waits on.
        """
        pc = self._pc
        if pc == _DONE:
            return
        env = self.env
        wait = self._wait
        if pc == _START:
            env.cancel(wait)
        elif pc == _GOT and wait._triggered:
            # A deposit already succeeded the dead incarnation's parked
            # getter: the item left the store but was never received.
            # Put it back at the head and retire the resume event.
            env.cancel(wait)
            if wait._value is not _GOAL_WAKE:
                self.mailbox.items.appendleft(wait._value)
        else:
            wait.callbacks.remove(self._resume)
        self._pc = _DONE
        self._wait = None

    def crash(self) -> bool:
        """Kill the running incarnation (fault injection).

        Returns ``False`` when there is nothing to kill (never created, or
        already finished).  The mailbox survives — in LIFL the queue holds
        shm object *keys*, and the objects outlive the consumer — but the
        dead incarnation's parked get is purged so a later deposit cannot
        vanish into it.  A crashed instance stays dead until
        :meth:`restart`."""
        if not self._created or self.state is InstanceState.FINISHED:
            return False
        self._retire()
        self.mailbox.drop_getters()
        self.state = InstanceState.CRASHED
        return True

    def restart(self, startup_latency: float, reused: bool, startup_cpu: float = 0.0) -> None:
        """Stateless restart after a crash (§3): "new ones start without
        state synchronization" — the replacement re-reads the surviving
        inputs from shared memory (``retain_inputs`` must have been on) and
        re-aggregates from scratch.  ``reused`` restarts come from the warm
        pool and are ready instantly; cold restarts pay ``startup_latency``.
        """
        if self.state is InstanceState.FINISHED:
            raise SimulationError(f"{self.agg_id}: cannot restart a finished instance")
        if not self._created:
            raise SimulationError(f"{self.agg_id}: cannot restart before creation")
        env = self.env
        self.crash()  # synchronous kill + getter purge (no-op if already crashed)
        if self._consumed:
            # Re-enqueue ahead of anything still unread, preserving order.
            self.mailbox.items.extendleft(reversed(self._consumed))
            self._consumed = []
        self._total_weight = 0.0
        stats = self.stats
        stats.restarts += 1
        stats.updates_aggregated = 0
        stats.client_updates = 0
        stats.reused = reused
        now = env.now
        self.state = InstanceState.STARTING
        ready_event = self._ready_event = Event(env)
        self._spawn()
        if startup_latency <= 0.0:
            self.state = InstanceState.READY
            stats.ready_at = now
            ready_event.succeed()
            return
        if startup_cpu > 0:
            self._charge("restart", startup_cpu)
        if self._record is not None:
            self._record(self.agg_id, "restart", now, now + startup_latency)

        def up(_: Event) -> None:
            if ready_event is not self._ready_event:
                return  # superseded by an even newer restart
            self.state = InstanceState.READY
            self.stats.ready_at = self.env.now
            ready_event.succeed()

        env.timeout(startup_latency).callbacks.append(up)

    # -- the step-based processing loop (Fig. 14) ------------------------------
    def _spawn(self) -> None:
        """Start a fresh incarnation: one start event, fired this instant."""
        self._pc = _START
        self._wait = start = Timeout(self.env, 0.0)
        start.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        """Continuation of the Recv → Agg → Send loop.

        Every wait registers this method on the event it waits for and sets
        ``_pc`` to the point the loop resumes at.  One call runs steps until
        the next wait (or Send) and returns; items already in the mailbox
        are taken in the same pass, so a backlog of any size costs no stack
        depth.
        """
        pc = self._pc
        if pc == _START:
            # The start event is pushed before this incarnation's ready
            # event can be triggered, so readiness is never already
            # processed here.
            self._pc = _READY
            self._wait = ready = self._ready_event
            ready.callbacks.append(self._resume)
            return
        env = self.env
        costs = self.costs
        stats = self.stats
        record = self._record  # None when the round's telemetry is off
        item = None
        if pc == _READY:
            # ``_goal`` is re-read at the points the recovery controller's
            # goal shrinks (client failures) can take effect.
            self._goal = self.fan_in
            self._received = 0
            self._aggregated = 0
            self._pending = deque()
            self._retain = self._consumed if self.retain_inputs else None
            pc = _TOP
        elif pc == _GOT:
            item = event._value
        elif pc == _RECEIVED:
            self._charge("dataplane", costs.recv_client_cpu)
            if record is not None:
                record(self.agg_id, "network", self._t0, env._now)
            item = self._item
            pc = _QUEUE
        else:  # _AGGREGATED
            self._charge("aggregation", costs.agg_cpu)
            if record is not None:
                record(self.agg_id, "agg", self._t0, env._now)
            item = self._item
            self._total_weight += item.weight
            self._aggregated += 1
            stats.updates_aggregated = self._aggregated
            if not item.is_intermediate:
                stats.client_updates += 1
            # eager goes back to Recv, overlapping later arrivals
            pc = _NEXT if self.eager else _AGG
        while True:
            if pc == _TOP:
                if self._aggregated >= self._goal:
                    self._send()
                    return
                if self._received >= self._goal:
                    pc = _AGG
                    continue
                # Backlogged mailboxes hand the item over without an event
                # round-trip; only an empty mailbox parks the loop.
                item = self.mailbox.try_get()
                if item is None:
                    self._pc = _GOT
                    self._wait = get = self.mailbox.get()
                    get.callbacks.append(self._resume)
                    return
                pc = _GOT
            if pc == _GOT:
                if item is _GOAL_WAKE:
                    self._goal = self.fan_in  # the goal shrank while parked
                    pc = _TOP
                    continue
                self._received += 1
                if self._retain is not None:
                    self._retain.append(item)
                # Recv step: client updates pay the consumer-side ingress
                # leg; intermediates' cost was paid on the transfer edge.
                if not item.is_intermediate and costs.recv_client_latency > 0:
                    self._item = item
                    self._t0 = env._now
                    self._pc = _RECEIVED
                    self._wait = wait = Timeout(env, costs.recv_client_latency)
                    wait.callbacks.append(self._resume)
                    return
                pc = _QUEUE
            if pc == _QUEUE:
                self._pending.append(item)
                # lazy: keep queuing until everything arrived
                pc = _TOP if not self.eager and self._received < self._goal else _AGG
                continue
            if pc == _AGG:
                # Agg step: eager folds one item; lazy drains the queue.
                if self._pending and self._aggregated < self._goal:
                    self._item = self._pending.popleft()
                    self._t0 = env._now
                    self._pc = _AGGREGATED
                    self._wait = wait = Timeout(env, costs.agg_latency)
                    wait.callbacks.append(self._resume)
                    return
                pc = _NEXT
            # _NEXT: end of one Recv/Agg pass
            self._goal = self.fan_in
            pc = _TOP

    def _send(self) -> None:
        """Send step: emit the aggregate and end the incarnation, dropping
        its per-incarnation state."""
        self._pc = _DONE
        self._wait = None
        self._pending = None
        self._retain = None
        self._item = None
        self.state = InstanceState.FINISHED
        now = self.env._now
        self.stats.finished_at = now
        self._on_output(self, self._total_weight, now)
