"""Processor-sharing network links and the cluster fabric.

A NIC is modelled as a *processor-sharing* link: all active flows share the
link capacity equally, and rates are recomputed whenever a flow starts or
finishes.  This captures the contention the paper observes in Fig. 4, where
four leaf aggregators sending intermediate updates to the top aggregator
compete for the same NIC and kernel network processing.

Implementation: **virtual service time**.  The link tracks ``_service`` —
the cumulative bytes *each* active flow has received since the link was
created (all flows in a processor-sharing link drain at the same per-flow
rate, so one scalar serves every flow).  A flow arriving when the virtual
service clock reads ``V`` finishes when the clock reads ``V + nbytes``;
that finish point is computed once, on arrival, and pushed on a heap.  A
flow start/finish is then O(log F): advance the clock, pop newly finished
flows, retime the single pending timer against the heap top.  Superseded
timers are *cancelled* (skipped dead when popped) instead of being left to
fire as no-ops — the counters in :mod:`repro.perf.counters` make the
difference observable.

Fault injection (:mod:`repro.chaos`) plugs in through two hooks:

* :meth:`ProcessorSharingLink.set_rate_factor` rescales the link's
  effective capacity mid-flow (NIC degradation; factor ``0`` freezes every
  flow in place until the link is restored — a partition window);
* :meth:`Fabric.set_node_rate_factor` / :meth:`Fabric.partition` /
  :meth:`Fabric.heal` apply the same per node, composing a persistent
  degradation factor with transient partition windows.

The fabric also accepts a per-node NIC capacity at registration, so
heterogeneous fleets (mixed 1/10/100 Gbps nodes) share one interconnect.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import SimulationError
from repro.sim.engine import Environment, Event, Timeout


@dataclass(frozen=True)
class NodeHealth:
    """One node's fabric health at a snapshot instant.

    ``degrade_factor`` is the persistent NIC degradation (1.0 when
    healthy); ``partitioned`` is the transient partition-window state;
    ``rate_factor`` composes the two exactly as the links do — 0.0 while
    partitioned, the degradation factor otherwise.
    """

    degrade_factor: float
    partitioned: bool

    @property
    def rate_factor(self) -> float:
        return 0.0 if self.partitioned else self.degrade_factor

    @property
    def healthy(self) -> bool:
        """Fully healthy: not partitioned and not degraded at all."""
        return not self.partitioned and self.degrade_factor >= 1.0


class Flow:
    """One in-flight transfer on a :class:`ProcessorSharingLink`."""

    __slots__ = ("nbytes", "done", "started_at", "label")

    def __init__(self, env: Environment, nbytes: float, label: str = "") -> None:
        if nbytes <= 0:
            raise SimulationError(f"flow size must be positive, got {nbytes}")
        self.nbytes = float(nbytes)
        self.done: Event = Event(env)
        self.started_at = env.now
        self.label = label


class ProcessorSharingLink:
    """A link of fixed capacity shared equally among its active flows.

    ``capacity_bps`` is in **bytes per second** (the library's convention is
    bytes everywhere; the 10 Gb NIC of the testbed is ``1.25e9``).
    """

    def __init__(self, env: Environment, capacity_bps: float, name: str = "link") -> None:
        if capacity_bps <= 0:
            raise SimulationError(f"link capacity must be positive, got {capacity_bps}")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.name = name
        #: cumulative per-flow service (bytes) — the virtual service clock
        self._service = 0.0
        #: (finish service point, arrival seq, flow), a heap
        self._heap: list[tuple[float, int, Flow]] = []
        self._seq = 0
        self._last_update = env.now
        self._timer: Optional[Timeout] = None
        self.bytes_carried = 0.0
        #: chaos hook state: effective rate = capacity × factor.  The rate
        #: is precomputed so the hot path costs exactly what it did before
        #: the hook existed (no per-advance multiply on healthy links).
        self._factor = 1.0
        self._rate_bps = self.capacity_bps

    @property
    def active_flows(self) -> int:
        return len(self._heap)

    @property
    def rate_factor(self) -> float:
        """The chaos rescale factor currently applied (1.0 when healthy)."""
        return self._factor

    def set_rate_factor(self, factor: float) -> None:
        """Rescale the link's effective capacity mid-flow (chaos hook).

        In-flight flows keep their virtual finish points; only the clock's
        advance rate changes, so service already received is preserved
        exactly.  ``factor == 0`` freezes the link (a partition window):
        flows neither progress nor time out until the factor is restored.
        """
        if factor < 0:
            raise SimulationError(f"rate factor must be >= 0, got {factor}")
        if factor == self._factor:
            return
        # Settle service accrued at the old rate before switching.
        self._advance()
        self._factor = float(factor)
        self._rate_bps = self.capacity_bps * self._factor
        timer = self._timer
        if timer is not None and not timer._processed:
            self.env.cancel(timer)
        self._reschedule()

    def transfer(self, nbytes: float, label: str = "") -> Event:
        """Start a flow; the returned event fires at completion."""
        self._advance()
        flow = Flow(self.env, nbytes, label)
        self._seq += 1
        heapq.heappush(self._heap, (self._service + flow.nbytes, self._seq, flow))
        timer = self._timer
        if timer is not None and not timer._processed:
            # The rate change moved the next completion: retire the armed
            # timer (it is skipped dead at pop) instead of letting it fire
            # as a stale no-op.
            self.env.cancel(timer)
        self._reschedule()
        return flow.done

    # -- internals --------------------------------------------------------
    #: flows whose remainder would drain in less than this many seconds at
    #: the current rate are considered finished — the residue is float
    #: noise, and sweeping it eagerly prevents zero-length timer loops when
    #: timestamps collide.  (A time threshold scales with the link rate; a
    #: fixed byte threshold silently dropped the tail of small transfers.)
    _EPSILON_SECONDS = 1e-9

    def _advance(self) -> None:
        """Advance the virtual service clock and pop finished flows."""
        env = self.env
        now = env.now
        dt = now - self._last_update
        self._last_update = now
        heap = self._heap
        if not heap:
            return
        n = len(heap)
        rate = self._rate_bps / n
        if dt > 0:
            dv = rate * dt
            self._service += dv
            self.bytes_carried += dv * n
        service = self._service
        horizon = service + rate * self._EPSILON_SECONDS
        while heap and heap[0][0] <= horizon:
            finish_at, _, flow = heapq.heappop(heap)
            # A flow's total contribution must be exactly its size: correct
            # for the float residue/overshoot accrued in interval math.
            self.bytes_carried += finish_at - service
            flow.done.succeed(now - flow.started_at)

    def _reschedule(self) -> None:
        """Arm a fresh timer for the next flow completion (the previous
        timer, if any, must be processed or cancelled by the caller)."""
        heap = self._heap
        if not heap or self._rate_bps == 0.0:
            # A frozen link (factor 0) arms no timer: nothing completes
            # until set_rate_factor() restores a positive rate.
            self._timer = None
            return
        env = self.env
        rate = self._rate_bps / len(heap)
        delay = (heap[0][0] - self._service) / rate
        if delay < 0:
            delay = 0.0
        timer = Timeout(env, delay)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by a newer state change
        self._advance()
        self._reschedule()


class _PairCompletion:
    """Callback counting down the two legs of a fabric transfer; fires the
    single completion event when the slower leg finishes."""

    __slots__ = ("result", "pending")

    def __init__(self, result: Event) -> None:
        self.result = result
        self.pending = 2

    def __call__(self, event: Event) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.result.succeed(event.env.now)


class Fabric:
    """The cluster interconnect: one TX and one RX link per node.

    A transfer from node A to node B occupies A's TX link and B's RX link;
    its completion time is governed by the slower of the two (modelled by
    running the bytes through both links sequentially at half size would be
    wrong — instead we take the max of two concurrent flow completions).

    ``nic_bps`` is the default NIC capacity; :meth:`register_node` accepts
    a per-node override for heterogeneous fleets.
    """

    def __init__(self, env: Environment, nic_bps: float) -> None:
        self.env = env
        self.nic_bps = float(nic_bps)
        self._tx: dict[str, ProcessorSharingLink] = {}
        self._rx: dict[str, ProcessorSharingLink] = {}
        #: chaos state per node: persistent degradation factor and the set
        #: of currently partitioned nodes.  Effective factor = 0 while
        #: partitioned, the degradation factor otherwise.
        self._degraded: dict[str, float] = {}
        self._partitioned: set[str] = set()

    def register_node(self, name: str, nic_bps: float | None = None) -> None:
        if name in self._tx:
            raise SimulationError(f"node {name!r} already registered on fabric")
        bps = self.nic_bps if nic_bps is None else float(nic_bps)
        self._tx[name] = ProcessorSharingLink(self.env, bps, f"{name}/tx")
        self._rx[name] = ProcessorSharingLink(self.env, bps, f"{name}/rx")

    def tx_link(self, name: str) -> ProcessorSharingLink:
        return self._tx[name]

    def rx_link(self, name: str) -> ProcessorSharingLink:
        return self._rx[name]

    # -- chaos hooks -------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._tx:
            raise SimulationError(f"unknown node {name!r} on fabric")

    def _apply(self, name: str) -> None:
        factor = 0.0 if name in self._partitioned else self._degraded.get(name, 1.0)
        self._tx[name].set_rate_factor(factor)
        self._rx[name].set_rate_factor(factor)

    def set_node_rate_factor(self, name: str, factor: float) -> None:
        """Degrade (or restore) one node's NIC: both links rescale to
        ``factor`` × capacity.  Composes with partitions — a healed node
        returns to its degradation factor, not blindly to full rate."""
        self._require(name)
        if factor < 0:
            raise SimulationError(f"rate factor must be >= 0, got {factor}")
        if factor == 1.0:
            self._degraded.pop(name, None)
        else:
            self._degraded[name] = float(factor)
        self._apply(name)

    def node_rate_factor(self, name: str) -> float:
        self._require(name)
        return 0.0 if name in self._partitioned else self._degraded.get(name, 1.0)

    def partition(self, names: Iterable[str]) -> None:
        """Sever the named nodes from the cluster: their TX/RX links freeze
        (in-flight flows stall in place) until :meth:`heal`."""
        for name in names:
            self._require(name)
            self._partitioned.add(name)
            self._apply(name)

    def heal(self, names: Iterable[str]) -> None:
        """End a partition window; stalled flows resume where they froze."""
        for name in names:
            self._require(name)
            self._partitioned.discard(name)
            self._apply(name)

    @property
    def partitioned_nodes(self) -> set[str]:
        return set(self._partitioned)

    @property
    def nodes(self) -> tuple[str, ...]:
        """Every node registered on this fabric, in registration order."""
        return tuple(self._tx)

    def node_health(self) -> dict[str, NodeHealth]:
        """One consolidated health snapshot for every registered node.

        This is the API control-plane policies consume: instead of probing
        ``node_rate_factor`` and ``partitioned_nodes`` separately (and
        racing a chaos event between the two reads), a caller takes one
        snapshot and reasons about degrade factor and partition state
        together.  The snapshot is a plain dict of frozen records — it
        never mutates when the fabric's state changes afterwards.
        """
        return {
            name: NodeHealth(
                degrade_factor=self._degraded.get(name, 1.0),
                partitioned=name in self._partitioned,
            )
            for name in self._tx
        }

    def transfer(self, src: str, dst: str, nbytes: float, label: str = "") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; fires when both NICs done.

        The returned event is the completion event itself — it fires in the
        same event step as the slower leg's flow completion, with the
        completion time as its value.

        Intra-node "transfers" (src == dst) complete immediately — higher
        layers model the intra-node cost explicitly (shared memory vs
        loopback kernel path) through the dataplane cost models.
        """
        if src not in self._tx or dst not in self._rx:
            raise SimulationError(f"unknown endpoint in transfer {src!r}->{dst!r}")
        if src == dst:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        tx_done = self._tx[src].transfer(nbytes, label)
        rx_done = self._rx[dst].transfer(nbytes, label)
        result = Event(self.env)
        pair = _PairCompletion(result)
        tx_done.callbacks.append(pair)
        rx_done.callbacks.append(pair)
        return result
