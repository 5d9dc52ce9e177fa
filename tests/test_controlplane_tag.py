"""The Topology Abstraction Graph (App. D)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.hierarchy import plan_hierarchy
from repro.controlplane.tag import ChannelMechanism, TagGraph


def test_tag_from_plan_channels_by_colocation():
    plan = plan_hierarchy({"node0": 4, "node1": 4})
    tag = TagGraph.from_plan(plan)
    shm, kernel = 0, 0
    for agg in plan.aggregators.values():
        if not agg.parent:
            continue
        ch = tag.channel(agg.agg_id, agg.parent)
        if ch.mechanism is ChannelMechanism.SHARED_MEMORY:
            shm += 1
        else:
            kernel += 1
    assert shm > 0 and kernel > 0  # intra-node shm, cross-node kernel


def test_tag_routes_match_plan():
    plan = plan_hierarchy({"node0": 8})
    tag = TagGraph.from_plan(plan)
    assert tag.routes() == plan.routes()


def test_tag_shared_memory_fraction_higher_when_packed():
    packed = TagGraph.from_plan(plan_hierarchy({"node0": 20}))
    spread = TagGraph.from_plan(plan_hierarchy({f"node{i}": 4 for i in range(5)}))
    assert packed.shared_memory_fraction() == 1.0
    assert spread.shared_memory_fraction() < 1.0


def test_tag_manual_construction_and_errors():
    tag = TagGraph()
    tag.add_role("agg1", "aggregator", node="n0")
    tag.add_role("client1", "client")
    tag.add_channel("client1", "agg1")
    assert tag.role_of("agg1") == "aggregator"
    assert tag.channel("client1", "agg1").mechanism is ChannelMechanism.KERNEL
    with pytest.raises(ConfigError):
        tag.add_role("agg1", "aggregator")  # duplicate
    with pytest.raises(ConfigError):
        tag.add_role("x", "banana")  # bad role
    with pytest.raises(ConfigError):
        tag.add_channel("ghost", "agg1")
    with pytest.raises(ConfigError):
        tag.channel("agg1", "client1")  # no such edge
