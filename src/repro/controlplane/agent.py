"""The per-node LIFL agent (Fig. 3).

Deployed on every worker node, the agent:

* manages the lifecycle of local aggregators (create / terminate);
* owns the shared-memory object store (allocation / recycling / destruction,
  §4.1) and submits model checkpoints (Appendix B);
* programs the node's routing state — sockmap entries and SKMSG routes for
  intra-node, gateway routing-table entries for inter-node (Appendix A) —
  each time the hierarchy is renewed;
* periodically drains the eBPF metrics map and reports to the metrics
  server.

This class drives the **real runtime** of :mod:`repro.runtime`; the
simulation experiments use the same planning outputs but apply them to
simulated aggregators.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.common.errors import RoutingError
from repro.controlplane.hierarchy import HierarchyPlan
from repro.controlplane.metrics import MetricsServer
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.gateway import Gateway
from repro.runtime.metrics_map import MetricsMap
from repro.runtime.object_store import SharedMemoryObjectStore
from repro.runtime.skmsg import SkMsgRouter
from repro.runtime.sockmap import Endpoint, SockMap


class NodeAgent:
    """Control-plane agent for one worker node of the real runtime."""

    def __init__(
        self,
        node: str,
        metrics_server: Optional[MetricsServer] = None,
        checkpoint_dir: Optional[str] = None,
        store_capacity_bytes: float = float("inf"),
    ) -> None:
        self.node = node
        self.store = SharedMemoryObjectStore(capacity_bytes=store_capacity_bytes, node=node)
        self.sockmap = SockMap(node)
        self.metrics_map = MetricsMap(node)
        self.router = SkMsgRouter(self.sockmap, self.metrics_map, self.store)
        self.gateway = Gateway(node, self.store, self.router)
        self.metrics_server = metrics_server
        self.checkpoints = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        self._local_aggregators: set[str] = set()
        self._drain_count = 0

    # -- aggregator lifecycle ------------------------------------------------
    def register_aggregator(self, agg_id: str, endpoint: Endpoint) -> None:
        """Create-side registration: install the aggregator's socket."""
        self.sockmap.update(agg_id, endpoint)
        self._local_aggregators.add(agg_id)

    def terminate_aggregator(self, agg_id: str) -> None:
        if agg_id not in self._local_aggregators:
            raise RoutingError(f"agent {self.node}: {agg_id!r} is not local")
        self.sockmap.delete(agg_id)
        self._local_aggregators.discard(agg_id)

    # -- route programming (online hierarchy update, App. A) -----------------
    def apply_routes(
        self,
        plan: HierarchyPlan,
        agents_by_node: Mapping[str, "NodeAgent"],
    ) -> None:
        """Install this node's slice of a hierarchy plan's routes.

        For every local source aggregator: route to its parent.  If the
        parent is local its socket is already in the sockmap; otherwise the
        sockmap points at the gateway and the gateway learns the remote
        node's gateway (Fig. 12).
        """
        for src_id, dst_id in plan.routes().items():
            src = plan.aggregators[src_id]
            if src.node != self.node:
                continue
            dst = plan.aggregators[dst_id]
            self.router.set_route(src_id, dst_id)
            if dst.node == self.node:
                continue  # destination socket installed by its own agent
            remote = agents_by_node.get(dst.node)
            if remote is None:
                raise RoutingError(
                    f"agent {self.node}: no agent for remote node {dst.node!r}"
                )
            self.sockmap.update(dst_id, self.gateway)
            self.gateway.add_inter_node_route(dst_id, dst.node, remote.gateway)

    # -- metrics drain cycle ---------------------------------------------------
    def drain_metrics(self, now: float = 0.0, window: float = 1.0) -> dict[str, float]:
        """Drain the eBPF metrics map and report k/E to the metrics server.

        ``window`` is the drain period used to turn counters into rates.
        Returns ``{"arrival_rate": k, "exec_time": E}`` for tests.
        """
        drained = self.metrics_map.drain()
        self._drain_count += 1
        updates = sum(m.updates_aggregated for m in drained.values())
        exec_total = sum(m.exec_time_total for m in drained.values())
        exec_count = sum(m.exec_time_count for m in drained.values())
        arrival_rate = updates / window if window > 0 else 0.0
        exec_time = exec_total / exec_count if exec_count else 0.0
        if self.metrics_server is not None:
            self.metrics_server.report(
                self.node, arrival_rate, exec_time, updates_seen=updates, now=now
            )
        return {"arrival_rate": arrival_rate, "exec_time": exec_time}

    # -- checkpoints (App. B) ----------------------------------------------------
    def checkpoint_model(self, version: int, params: Mapping[str, np.ndarray]) -> None:
        """Asynchronously persist the global model (no ACT impact)."""
        if self.checkpoints is None:
            raise RoutingError(f"agent {self.node}: checkpointing not configured")
        self.checkpoints.submit(version, params)

    def close(self) -> None:
        if self.checkpoints is not None:
            self.checkpoints.flush()
            self.checkpoints.close()
        self.store.destroy()

    def __enter__(self) -> "NodeAgent":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
