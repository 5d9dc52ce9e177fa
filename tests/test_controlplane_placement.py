"""Placement: bin-packing policies, residual capacity, overhead budget."""

from __future__ import annotations

import time

import pytest

from repro.common.errors import CapacityExceededError, ConfigError
from repro.controlplane.placement import NodeCapacity
from repro.core.policies import resolve_policy


def placer(name="bestfit"):
    return resolve_policy("placement", name)


def five_nodes(mc=20):
    return [NodeCapacity(f"node{i}", mc) for i in range(5)]


def test_residual_capacity_formula():
    n = NodeCapacity("n", max_capacity=20, arrival_rate=4.0, exec_time=2.0)
    assert n.in_flight == pytest.approx(8.0)
    assert n.residual == pytest.approx(12.0)


def test_node_capacity_validation():
    with pytest.raises(ConfigError):
        NodeCapacity("n", max_capacity=0)
    with pytest.raises(ConfigError):
        NodeCapacity("n", max_capacity=5, arrival_rate=-1.0)


def test_bestfit_packs_fig8d_shape():
    """The Fig. 8(d) result: 20/60/100 updates -> 1/3/5 nodes."""
    for n_updates, expected_nodes in [(20, 1), (60, 3), (100, 5)]:
        plan = placer().place(n_updates, five_nodes())
        assert plan.node_count == expected_nodes


def test_worstfit_spreads_like_least_connection():
    for n_updates in (20, 60, 100):
        plan = placer("worstfit").place(n_updates, five_nodes())
        assert plan.node_count == 5
        counts = list(plan.per_node.values())
        assert max(counts) - min(counts) <= 1  # even spread


def test_firstfit_fills_in_order():
    plan = placer("firstfit").place(30, five_nodes())
    assert plan.per_node["node0"] == 20
    assert plan.per_node["node1"] == 10
    assert plan.node_count == 2


def test_bestfit_prefers_fuller_node():
    nodes = [
        NodeCapacity("busy", 20, arrival_rate=15.0, exec_time=1.0),  # residual 5
        NodeCapacity("idle", 20),  # residual 20
    ]
    plan = placer().place(5, nodes)
    assert plan.per_node == {"busy": 5, "idle": 0}


def test_worstfit_prefers_emptier_node():
    nodes = [
        NodeCapacity("busy", 20, arrival_rate=15.0, exec_time=1.0),
        NodeCapacity("idle", 20),
    ]
    plan = placer("worstfit").place(5, nodes)
    assert plan.per_node == {"busy": 0, "idle": 5}


def test_overflow_round_robins_when_saturated():
    plan = placer().place(110, five_nodes())
    # 100 fit; 10 overflow spread round-robin.
    assert sum(plan.per_node.values()) == 110
    assert plan.node_count == 5


def test_cross_node_transfers_metric():
    plan = placer().place(60, five_nodes())
    assert plan.cross_node_transfers() == plan.node_count - 1


def test_assignments_align_with_input_order():
    plan = placer().place(3, five_nodes())
    assert plan.assignments == ["node0"] * 3
    assert sum(plan.per_node.values()) == 3


def test_unknown_placement_name_raises():
    assert placer().name == "bestfit"
    with pytest.raises(ConfigError, match="unknown placement policy 'nope'"):
        placer("nope")


def test_no_nodes_raises():
    with pytest.raises(CapacityExceededError):
        placer().place(1, [])


def test_negative_updates_rejected():
    with pytest.raises(ConfigError):
        placer().place(-1, five_nodes())


def test_zero_updates_is_empty_plan():
    plan = placer().place(0, five_nodes())
    assert plan.assignments == []
    assert plan.node_count == 0


def test_placement_overhead_within_paper_budget():
    """§6.1: locality-aware placement < 17 ms at 10K clients."""
    nodes = [NodeCapacity(f"node{i}", 120) for i in range(100)]
    bestfit = placer()
    bestfit.place(10_000, nodes)  # warm up
    t0 = time.perf_counter()
    bestfit.place(10_000, nodes)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert elapsed_ms < 17.0


def test_policies_agree_on_totals():
    for policy in ("bestfit", "firstfit", "worstfit"):
        plan = placer(policy).place(60, five_nodes())
        assert sum(plan.per_node.values()) == 60
        assert all(v >= 0 for v in plan.per_node.values())
