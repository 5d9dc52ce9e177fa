"""LIFL's control plane (§5).

Pure-logic implementations of the orchestration algorithms.  The
simulated platforms (:mod:`repro.core.platform`) reach placement and
hierarchy planning from every round, which is how Fig. 8's ablation
switches exercise them; warm reuse is simulated by the lifecycle stage in
:mod:`repro.core.stages`.

* :mod:`repro.controlplane.placement` — the data model of locality-aware
  placement as bin-packing over residual service capacity (§5.1); the
  BestFit (LIFL), FirstFit and WorstFit (≈ Knative "least connection",
  the SL-H baseline) fills are the ``placement`` family of
  :mod:`repro.core.policies`;
* :mod:`repro.controlplane.hierarchy` — two-level k-ary hierarchy plans per
  node (§5.2);
* :mod:`repro.controlplane.tag` — the Topology Abstraction Graph used for
  fine-grained control (Appendix D);
* :mod:`repro.controlplane.metrics` — the metrics server fed by the
  eBPF-sidecar metrics maps, and the EWMA queue estimator that smooths
  the planner's input (§5.2), timed by the §6.1 overhead measurements;
* :mod:`repro.controlplane.agent` — the per-node agent that drives the
  real shared-memory runtime (:mod:`repro.runtime`);
* :mod:`repro.controlplane.reactive` — the closed-loop reactive controller
  the trace replay runs in virtual time: warm-pool scaling, per-tenant
  admission limits, chaos-aware placement, and graceful shedding.
"""

from repro.controlplane.hierarchy import (
    AggregatorSpec,
    HierarchyPlan,
    NodeHierarchy,
    Role,
    plan_hierarchy,
    plan_node_hierarchy,
)
from repro.controlplane.metrics import EwmaEstimator, MetricsServer, NodeMetrics
from repro.controlplane.reactive import (
    ACTION_KINDS,
    ControlAction,
    Controller,
    ControllerConfig,
    ControllerReport,
    DeadlineExceeded,
    pool_floor_for,
)
from repro.controlplane.placement import NodeCapacity, PlacementPlan
from repro.controlplane.tag import Channel, TagGraph, TagNode

__all__ = [
    "ACTION_KINDS",
    "AggregatorSpec",
    "Channel",
    "ControlAction",
    "Controller",
    "ControllerConfig",
    "ControllerReport",
    "DeadlineExceeded",
    "EwmaEstimator",
    "HierarchyPlan",
    "MetricsServer",
    "NodeCapacity",
    "NodeHierarchy",
    "NodeMetrics",
    "PlacementPlan",
    "Role",
    "TagGraph",
    "TagNode",
    "plan_hierarchy",
    "plan_node_hierarchy",
    "pool_floor_for",
]
