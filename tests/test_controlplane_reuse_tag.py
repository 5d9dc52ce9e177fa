"""Warm-pool reuse (§5.3) and the Topology Abstraction Graph (App. D)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.hierarchy import Role, plan_hierarchy
from repro.controlplane.reuse import WarmPool
from repro.controlplane.tag import ChannelMechanism, TagGraph


def test_acquire_cold_then_reuse():
    pool = WarmPool()
    h1, cold = pool.acquire("node0", Role.LEAF)
    assert cold and pool.cold_starts == 1
    pool.release(h1)
    h2, cold2 = pool.acquire("node0", Role.MIDDLE)
    assert not cold2 and pool.reuses == 1
    assert h2 is h1
    assert h2.role is Role.MIDDLE  # converted, not restarted
    assert h2.generation == 1


def test_reuse_is_per_node():
    pool = WarmPool()
    h, _ = pool.acquire("node0", Role.LEAF)
    pool.release(h)
    _, cold = pool.acquire("node1", Role.LEAF)
    assert cold  # warm runtime on node0 cannot serve node1


def test_keep_warm_disabled_terminates():
    pool = WarmPool(keep_warm=False)
    h, _ = pool.acquire("node0", Role.LEAF)
    pool.release(h)
    assert pool.terminations == 1
    _, cold = pool.acquire("node0", Role.LEAF)
    assert cold


def test_lifo_reuse_order():
    pool = WarmPool()
    a, _ = pool.acquire("n", Role.LEAF)
    b, _ = pool.acquire("n", Role.LEAF)
    pool.release(a)
    pool.release(b)
    got, _ = pool.acquire("n", Role.MIDDLE)
    assert got is b  # most recently idled first


def test_prewarm_stocks_pool():
    pool = WarmPool()
    pool.prewarm("node0", 3)
    assert pool.idle_count("node0") == 3
    _, cold = pool.acquire("node0", Role.LEAF)
    assert not cold
    with pytest.raises(ConfigError):
        pool.prewarm("node0", -1)


def test_evict_node():
    pool = WarmPool()
    pool.prewarm("node0", 4)
    assert pool.evict_node("node0") == 4
    assert pool.idle_count("node0") == 0
    assert pool.total_idle() == 0


# ---- TAG ---------------------------------------------------------------

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


def test_tag_single_root_validation():
    plan = plan_hierarchy({"node0": 8, "node1": 2})
    tag = TagGraph.from_plan(plan)
    assert tag.validate_single_rooted() == plan.top.agg_id


def test_tag_shared_memory_fraction_higher_when_packed():
    packed = TagGraph.from_plan(plan_hierarchy({"node0": 20}))
    spread = TagGraph.from_plan(plan_hierarchy({f"node{i}": 4 for i in range(5)}))
    assert packed.shared_memory_fraction() == 1.0
    assert spread.shared_memory_fraction() < 1.0


def test_tag_affinity_groups_use_group_by():
    plan = plan_hierarchy({"node0": 8})
    tag = TagGraph.from_plan(plan)
    groups = tag.affinity_groups()
    assert "node0" in groups
    assert len(groups["node0"]) >= 2


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


def _aggregators(*names: str) -> TagGraph:
    tag = TagGraph()
    for name in names:
        tag.add_role(name, "aggregator", node="n0")
    return tag


def test_tag_validation_rejects_two_roots():
    tag = _aggregators("top", "other", "leaf")
    tag.add_channel("leaf", "top")
    tag.add_role("client1", "client")
    tag.add_channel("other", "client1")  # a client edge does not make a parent
    with pytest.raises(ConfigError, match=r"exactly one root, found \['top', 'other'\]"):
        tag.validate_single_rooted()


def test_tag_validation_rejects_a_cycle():
    tag = _aggregators("top", "a", "b", "c")
    tag.add_channel("a", "b")
    tag.add_channel("b", "c")
    tag.add_channel("c", "a")
    with pytest.raises(ConfigError, match="hierarchy contains a cycle"):
        tag.validate_single_rooted()
    # a cycle hanging off an otherwise sound tree is caught too
    tag.add_channel("a", "top")
    with pytest.raises(ConfigError, match="hierarchy contains a cycle"):
        tag.validate_single_rooted()
