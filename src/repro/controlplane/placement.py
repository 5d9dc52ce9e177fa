"""Locality-aware placement and load balancing (§5.1).

The load-balancing task maps incoming model updates (equivalently, the
clients producing them) onto worker nodes with two criteria:

1. minimize inter-node communication / maximize shared-memory use, and
2. never exceed a node's **residual service capacity**
   ``RC_i,t = MC_i − k_i,t × E_i,t``.

LIFL treats this as bin-packing and uses **BestFit** — concentrate load onto
the fewest nodes.  **WorstFit** spreads load (the Knative "least connection"
behaviour of the SL-H baseline in Fig. 8), and **FirstFit** minimizes search
cost without locality awareness.  This module holds the data model those
policies share; the policies themselves are the ``placement`` family of
:mod:`repro.core.policies`, so the Fig. 8 ablation and the §6.1 overhead
benchmark (< 17 ms for 10K clients) run the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError


@dataclass
class NodeCapacity:
    """Placement-relevant state of one worker node at decision time.

    ``max_capacity`` is MC_i (max updates aggregated simultaneously,
    Appendix E); ``arrival_rate`` is k_i,t (updates/s currently directed at
    the node) and ``exec_time`` is E_i,t (average seconds to aggregate one
    update), so ``in_flight = k*E`` is the current queue estimate Q_i,t and
    ``residual = MC − k*E`` is RC_i,t.
    """

    name: str
    max_capacity: float
    arrival_rate: float = 0.0
    exec_time: float = 0.0

    def __post_init__(self) -> None:
        if self.max_capacity <= 0:
            raise ConfigError(f"node {self.name}: max_capacity must be positive")
        if self.arrival_rate < 0 or self.exec_time < 0:
            raise ConfigError(f"node {self.name}: negative rate or exec time")

    @property
    def in_flight(self) -> float:
        """Coarse queue-length estimate Q_i,t = k_i,t × E_i,t."""
        return self.arrival_rate * self.exec_time

    @property
    def residual(self) -> float:
        """Residual service capacity RC_i,t."""
        return self.max_capacity - self.in_flight


@dataclass
class PlacementPlan:
    """Result of one placement round."""

    #: update index → node name, parallel to the input demand sequence
    assignments: list[str]
    #: node name → number of updates it received in this round
    per_node: dict[str, int] = field(default_factory=dict)

    @property
    def nodes_used(self) -> list[str]:
        return [n for n, c in self.per_node.items() if c > 0]

    @property
    def node_count(self) -> int:
        return len(self.nodes_used)

    def cross_node_transfers(self) -> int:
        """Intermediate-update transfers this plan implies: every active
        node except the one hosting the top aggregator ships exactly one
        intermediate update (§5.2 "the communication between a particular
        pair of worker nodes only happens once")."""
        return max(0, self.node_count - 1)
