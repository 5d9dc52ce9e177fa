"""The metrics server (Fig. 3) — the control plane's view of load.

Per-node arrival rates ``k_i,t`` and execution times ``E_i,t`` flow here
from the LIFL agents (:class:`~repro.controlplane.agent.NodeAgent`, which
drains the eBPF metrics maps, §4.3), and the server derives each node's
queue estimate and residual capacity from them.

:class:`EwmaEstimator` smooths those queue estimates for LIFL's
hierarchy-aware autoscaling (§5.2): ``Q_i,t = k_i,t × E_i,t`` through an
EWMA with ``α = 0.7`` ("based on it yielding the best results in our
experiments"), so short-term spikes do not over-allocate.  The §6.1
overhead measurements (:mod:`repro.experiments.overhead`) time it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass
class NodeMetrics:
    """Rolling per-node load statistics."""

    node: str
    max_capacity: float
    arrival_rate: float = 0.0
    exec_time: float = 0.0
    updates_seen: int = 0
    last_report_time: float = 0.0

    @property
    def queue_estimate(self) -> float:
        """Q_i,t = k_i,t × E_i,t."""
        return self.arrival_rate * self.exec_time

    @property
    def residual_capacity(self) -> float:
        """RC_i,t = MC_i − k_i,t × E_i,t."""
        return self.max_capacity - self.queue_estimate


class MetricsServer:
    """Cluster-wide metrics aggregation point."""

    def __init__(self) -> None:
        self._nodes: dict[str, NodeMetrics] = {}

    def register_node(self, node: str, max_capacity: float) -> None:
        if node in self._nodes:
            raise ConfigError(f"node {node!r} already registered")
        if max_capacity <= 0:
            raise ConfigError(f"max_capacity must be positive, got {max_capacity}")
        self._nodes[node] = NodeMetrics(node=node, max_capacity=max_capacity)

    def report(
        self,
        node: str,
        arrival_rate: float,
        exec_time: float,
        updates_seen: int = 0,
        now: float = 0.0,
    ) -> None:
        """Agent-side report of one metrics-drain cycle."""
        m = self._metrics(node)
        if arrival_rate < 0 or exec_time < 0:
            raise ConfigError("metrics must be non-negative")
        m.arrival_rate = arrival_rate
        m.exec_time = exec_time
        m.updates_seen += updates_seen
        m.last_report_time = now

    def node_metrics(self, node: str) -> NodeMetrics:
        return self._metrics(node)

    def queue_estimates(self) -> dict[str, float]:
        return {n: m.queue_estimate for n, m in self._nodes.items()}

    def nodes(self) -> list[str]:
        return list(self._nodes)

    def _metrics(self, node: str) -> NodeMetrics:
        try:
            return self._nodes[node]
        except KeyError:
            raise ConfigError(f"unknown node {node!r}; registered: {sorted(self._nodes)}") from None


class EwmaEstimator:
    """Exponentially weighted moving average over queue estimates.

    The paper's recurrence (§5.2): ``Q̄_t = α × Q̄_{t−1} + (1 − α) × Q_t``,
    with α = 0.7 — heavier weight on history, damping spikes.
    """

    def __init__(self, alpha: float = 0.7) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"EWMA alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self._value: float | None = None

    @property
    def value(self) -> float:
        """Current smoothed estimate (0 before any observation)."""
        return 0.0 if self._value is None else self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def update(self, observation: float) -> float:
        """Fold in one observation; returns the new smoothed value."""
        if observation < 0:
            raise ConfigError(f"negative queue observation: {observation}")
        if self._value is None:
            self._value = float(observation)
        else:
            self._value = self.alpha * self._value + (1.0 - self.alpha) * observation
        return self._value

    def reset(self) -> None:
        self._value = None
