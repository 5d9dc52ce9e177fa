"""Topology Abstraction Graph (Appendix D).

The TAG is the control plane's generic description of connectivity and
placement affinity, borrowed from Flame: each graph node carries a ``role``
("aggregator" or "client"), each edge a ``channel`` naming the communication
mechanism, and channels carry a ``groupBy`` label — keeping the same label
clusters roles into a placement-affinity group for locality-aware placement.

The graph is two plain dicts — role attributes and successor adjacency,
both in insertion order — which is all the structural queries here
(routes, channel lookups) need; the LIFL agent consumes
:meth:`TagGraph.routes` to program sockmaps and gateway routing tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.common.errors import ConfigError
from repro.controlplane.hierarchy import HierarchyPlan


class ChannelMechanism(str, Enum):
    """The "channel" metadata: how two roles communicate."""

    SHARED_MEMORY = "shm"
    KERNEL = "kernel"


@dataclass(frozen=True)
class TagNode:
    """A role instance in the graph."""

    name: str
    role: str  # "aggregator" or "client"
    node: str = ""  # worker node, once placed


@dataclass(frozen=True)
class Channel:
    """Directed communication declaration between two roles."""

    src: str
    dst: str
    mechanism: ChannelMechanism
    group_by: str = ""


class TagGraph:
    """Mutable TAG with validation and route extraction."""

    def __init__(self) -> None:
        #: role name -> {"role", "node"}
        self._roles: dict[str, dict[str, str]] = {}
        #: src -> dst -> {"mechanism", "group_by"}
        self._succ: dict[str, dict[str, dict]] = {}

    # -- construction -------------------------------------------------------
    def add_role(self, name: str, role: str, node: str = "") -> None:
        if role not in ("aggregator", "client"):
            raise ConfigError(f"role must be 'aggregator' or 'client', got {role!r}")
        if name in self._roles:
            raise ConfigError(f"role {name!r} already in TAG")
        self._roles[name] = {"role": role, "node": node}
        self._succ[name] = {}

    def add_channel(
        self,
        src: str,
        dst: str,
        mechanism: ChannelMechanism | None = None,
        group_by: str = "",
    ) -> None:
        for endpoint in (src, dst):
            if endpoint not in self._roles:
                raise ConfigError(f"channel endpoint {endpoint!r} not in TAG")
        if mechanism is None:
            src_node = self._roles[src]["node"]
            dst_node = self._roles[dst]["node"]
            same = src_node and src_node == dst_node
            mechanism = ChannelMechanism.SHARED_MEMORY if same else ChannelMechanism.KERNEL
        self._succ[src][dst] = {"mechanism": mechanism, "group_by": group_by}

    @classmethod
    def from_plan(cls, plan: HierarchyPlan) -> "TagGraph":
        """Derive the TAG for one hierarchy plan: aggregator roles wired
        child→parent, channels chosen by co-location, groupBy set to the
        worker node (the affinity label the placement engine honours)."""
        tag = cls()
        for agg in plan.aggregators.values():
            tag.add_role(agg.agg_id, "aggregator", node=agg.node)
        for agg in plan.aggregators.values():
            if agg.parent:
                parent = plan.aggregators[agg.parent]
                same = agg.node == parent.node
                tag.add_channel(
                    agg.agg_id,
                    agg.parent,
                    ChannelMechanism.SHARED_MEMORY if same else ChannelMechanism.KERNEL,
                    group_by=agg.node if same else "",
                )
        return tag

    # -- queries -------------------------------------------------------------
    def roles(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._roles)
        return [n for n, d in self._roles.items() if d["role"] == kind]

    def role_of(self, name: str) -> str:
        return self._roles[name]["role"]

    def channel(self, src: str, dst: str) -> Channel:
        data = self._succ.get(src, {}).get(dst)
        if data is None:
            raise ConfigError(f"no channel {src!r} -> {dst!r}")
        return Channel(src, dst, data["mechanism"], data["group_by"])

    def _channels(self):
        """Every channel as ``(src, dst, data)``, in insertion order."""
        for src, dsts in self._succ.items():
            for dst, data in dsts.items():
                yield src, dst, data

    def routes(self) -> dict[str, str]:
        """src → dst map for every aggregator with one outgoing channel
        (the DAG input the routing manager converts to sockmap entries)."""
        out: dict[str, str] = {}
        for src, dsts in self._succ.items():
            if len(dsts) == 1:
                out[src] = next(iter(dsts))
            elif len(dsts) > 1:
                raise ConfigError(f"{src!r} has multiple outgoing channels; not a tree")
        return out

    def shared_memory_fraction(self) -> float:
        """Fraction of channels served by shared memory — the quantity
        locality-aware placement maximizes."""
        edges = list(self._channels())
        if not edges:
            return 0.0
        shm = sum(1 for *_, d in edges if d["mechanism"] is ChannelMechanism.SHARED_MEMORY)
        return shm / len(edges)

    def __len__(self) -> int:
        return len(self._roles)
