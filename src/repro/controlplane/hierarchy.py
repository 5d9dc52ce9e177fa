"""Hierarchy planning (§5.2 "Planning the Hierarchy for Aggregation").

LIFL plans a **two-level k-ary tree within each node**: ``Q_i,t / I`` leaf
aggregators (each consuming ``I`` client updates; the paper keeps ``I``
small, e.g. 2, to minimize a leaf's waiting time) feeding one "central"
middle aggregator.  Every active node produces an intermediate update that
is dispatched to the node chosen to host the **top** aggregator, which
updates the global model.  This caps cross-node transfers at one per active
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError


class Role(str, Enum):
    """Aggregator roles in the tree (Fig. 2(a) terminology)."""

    LEAF = "leaf"
    MIDDLE = "middle"
    TOP = "top"


@dataclass(frozen=True)
class AggregatorSpec:
    """One planned aggregator instance."""

    agg_id: str
    role: Role
    node: str
    #: how many updates this instance must aggregate before emitting
    fan_in: int
    #: aggregator ID the output is sent to ("" for the top aggregator)
    parent: str = ""

    def __post_init__(self) -> None:
        if self.fan_in < 1:
            raise ConfigError(f"{self.agg_id}: fan_in must be >= 1")
        if self.role is Role.TOP and self.parent:
            raise ConfigError(f"{self.agg_id}: top aggregator cannot have a parent")
        if self.role is not Role.TOP and not self.parent:
            raise ConfigError(f"{self.agg_id}: non-top aggregator needs a parent")


@dataclass(frozen=True)
class NodeHierarchy:
    """The per-node slice of the plan: leaf count plus the local middle."""

    node: str
    pending_updates: int
    leaf_count: int
    updates_per_leaf: int
    #: True when the node can skip the middle level (a single leaf's output
    #: goes straight up — degenerate but valid for tiny queues)
    collapsed: bool

    @property
    def aggregator_count(self) -> int:
        return self.leaf_count + (0 if self.collapsed else 1)


def plan_node_hierarchy(node: str, pending_updates: int, updates_per_leaf: int = 2) -> NodeHierarchy:
    """Size the two-level tree on one node for ``pending_updates``.

    ``updates_per_leaf`` is the paper's ``I``.  A node with at most ``I``
    updates needs a single (collapsed) aggregator.
    """
    if updates_per_leaf < 1:
        raise ConfigError(f"updates_per_leaf must be >= 1, got {updates_per_leaf}")
    if pending_updates < 0:
        raise ConfigError(f"pending_updates must be non-negative, got {pending_updates}")
    if pending_updates == 0:
        return NodeHierarchy(node, 0, 0, updates_per_leaf, collapsed=True)
    leaf_count = math.ceil(pending_updates / updates_per_leaf)
    collapsed = leaf_count == 1
    return NodeHierarchy(node, pending_updates, leaf_count, updates_per_leaf, collapsed)


@dataclass
class HierarchyPlan:
    """The full cross-node aggregation tree for one planning round."""

    aggregators: dict[str, AggregatorSpec] = field(default_factory=dict)
    top_node: str = ""
    per_node: dict[str, NodeHierarchy] = field(default_factory=dict)

    @property
    def top(self) -> AggregatorSpec:
        tops = [a for a in self.aggregators.values() if a.role is Role.TOP]
        if len(tops) != 1:
            raise ConfigError(f"plan must have exactly one top aggregator, found {len(tops)}")
        return tops[0]

    def by_role(self, role: Role) -> list[AggregatorSpec]:
        return [a for a in self.aggregators.values() if a.role is role]

    def on_node(self, node: str) -> list[AggregatorSpec]:
        return [a for a in self.aggregators.values() if a.node == node]

    def routes(self) -> dict[str, str]:
        """Source → destination map (the SKMSG route table content)."""
        return {a.agg_id: a.parent for a in self.aggregators.values() if a.parent}

    def validate(self) -> None:
        """Structural invariants: single-rooted tree, consistent fan-ins.

        Linear in plan size: parent links are checked in one pass, and the
        walk-to-root marks every aggregator on a verified path so each node
        is visited O(1) times across the whole plan (500-aggregator stress
        plans used to spend more time re-walking here than simulating).
        """
        top = self.top  # raises unless exactly one
        has_children: set[str] = set()
        for agg in self.aggregators.values():
            if agg.parent:
                if agg.parent not in self.aggregators:
                    raise ConfigError(f"{agg.agg_id}: parent {agg.parent!r} not in plan")
                has_children.add(agg.parent)
        reaches_top = {top.agg_id}
        for agg in self.aggregators.values():
            # walk to the first already-verified ancestor, guarding cycles
            path: list[str] = []
            seen = {agg.agg_id}
            cur = agg
            while cur.agg_id not in reaches_top:
                path.append(cur.agg_id)
                if not cur.parent:
                    raise ConfigError(f"{agg.agg_id} does not reach the top aggregator")
                cur = self.aggregators[cur.parent]
                if cur.agg_id in seen:
                    raise ConfigError(f"cycle through {cur.agg_id}")
                seen.add(cur.agg_id)
            reaches_top.update(path)
        for agg_id in has_children:
            if self.aggregators[agg_id].role is Role.LEAF:
                raise ConfigError(f"leaf {agg_id} has children")


def plan_hierarchy(
    pending_per_node: dict[str, int],
    updates_per_leaf: int = 2,
    top_node: str | None = None,
    round_id: int = 0,
) -> HierarchyPlan:
    """Build the global tree for this round's per-node queue estimates.

    ``top_node`` defaults to the active node with the largest queue — the
    intermediate updates of other nodes converge there, which minimizes the
    bytes crossing the wire.  Aggregator IDs are deterministic in
    ``round_id`` so re-plans produce fresh IDs.
    """
    active = {n: q for n, q in pending_per_node.items() if q > 0}
    plan = HierarchyPlan()
    if not active:
        return plan
    if top_node is None:
        top_node = max(active, key=lambda n: (active[n], n))
    elif top_node not in pending_per_node:
        raise ConfigError(f"top_node {top_node!r} not among nodes {sorted(pending_per_node)}")

    tag = f"r{round_id}"
    top_id = f"{tag}/top@{top_node}"
    # The top aggregates one intermediate update per active node (itself
    # included); if the top node is otherwise idle it still anchors the tree.
    top_fan_in = len(active) if top_node in active else len(active)
    plan.aggregators[top_id] = AggregatorSpec(top_id, Role.TOP, top_node, max(1, top_fan_in))
    plan.top_node = top_node

    for node, pending in sorted(active.items()):
        nh = plan_node_hierarchy(node, pending, updates_per_leaf)
        plan.per_node[node] = nh
        if nh.collapsed:
            # Single aggregator on this node; it reports straight to the top.
            leaf_id = f"{tag}/leaf0@{node}"
            plan.aggregators[leaf_id] = AggregatorSpec(
                leaf_id, Role.LEAF, node, fan_in=pending, parent=top_id
            )
            continue
        middle_id = f"{tag}/mid@{node}"
        plan.aggregators[middle_id] = AggregatorSpec(
            middle_id, Role.MIDDLE, node, fan_in=nh.leaf_count, parent=top_id
        )
        remaining = pending
        for i in range(nh.leaf_count):
            take = min(updates_per_leaf, remaining)
            remaining -= take
            leaf_id = f"{tag}/leaf{i}@{node}"
            plan.aggregators[leaf_id] = AggregatorSpec(
                leaf_id, Role.LEAF, node, fan_in=take, parent=middle_id
            )
    plan.validate()
    return plan
