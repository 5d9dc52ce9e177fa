"""Property-based tests (hypothesis) on the core invariants.

The invariants the paper's correctness rests on:

* FedAvg: eager (cumulative) == lazy (batch); hierarchical composition ==
  flat aggregation, for any tree shape;
* placement: demand conservation, capacity respect, BestFit ⊆ fewest nodes;
* EWMA: bounded by observation range, order-insensitive at convergence;
* object store: refcount conservation — puts == frees after full release;
* processor-sharing link: work conservation (finish time ≥ bytes/capacity);
* step-based aggregator: output weight == sum of input weights.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.controlplane.hierarchy import plan_hierarchy
from repro.controlplane.metrics import EwmaEstimator
from repro.controlplane.placement import NodeCapacity
from repro.core.policies import POLICIES, resolve_policy
from repro.fl.fedavg import FedAvgAccumulator, ModelUpdate, federated_average
from repro.fl.model import Model
from repro.runtime.object_store import SharedMemoryObjectStore
from repro.sim.engine import Environment
from repro.cluster.network import ProcessorSharingLink

# ---- FedAvg ---------------------------------------------------------------

updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed for values
        st.floats(min_value=0.5, max_value=1000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
)


def _mk_updates(spec):
    out = []
    for seed, weight in spec:
        vals = make_rng(seed, "prop").standard_normal(6)
        out.append(ModelUpdate(Model({"w": vals}), weight=weight))
    return out


@given(updates_strategy)
@settings(max_examples=60, deadline=None)
def test_eager_equals_lazy_for_any_batch(spec):
    updates = _mk_updates(spec)
    lazy = federated_average(updates)
    eager = FedAvgAccumulator()
    for u in updates:
        eager.add(u)
    result = eager.result()
    assert result.model.allclose(lazy.model, rtol=1e-9, atol=1e-9)
    assert abs(result.weight - lazy.weight) < 1e-9


@given(updates_strategy, st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_hierarchical_equals_flat_for_any_partition(spec, n_leaves):
    updates = _mk_updates(spec)
    flat = federated_average(updates)
    leaves = [FedAvgAccumulator() for _ in range(min(n_leaves, len(updates)))]
    for i, u in enumerate(updates):
        leaves[i % len(leaves)].add(u)
    top = FedAvgAccumulator()
    for leaf in leaves:
        if not leaf.is_empty:
            top.add(leaf.result())
    assert top.result().model.allclose(flat.model, rtol=1e-9, atol=1e-9)


@given(updates_strategy)
@settings(max_examples=40, deadline=None)
def test_average_within_input_envelope(spec):
    updates = _mk_updates(spec)
    avg = federated_average(updates).model["w"]
    stacked = np.stack([u.model["w"] for u in updates])
    assert np.all(avg <= stacked.max(axis=0) + 1e-9)
    assert np.all(avg >= stacked.min(axis=0) - 1e-9)


# ---- placement ---------------------------------------------------------------

@given(
    st.integers(min_value=0, max_value=300),
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10),
)
@settings(max_examples=80, deadline=None)
def test_placement_conserves_demand_and_respects_capacity(n_updates, capacities):
    nodes = [NodeCapacity(f"n{i}", float(c)) for i, c in enumerate(capacities)]
    for name in POLICIES.names("placement"):
        plan = resolve_policy("placement", name).place(n_updates, nodes)
        assert sum(plan.per_node.values()) == n_updates
        assert len(plan.assignments) == n_updates
        total_capacity = sum(int(c) for c in capacities)
        if n_updates <= total_capacity:
            for node, count in plan.per_node.items():
                cap = next(n.max_capacity for n in nodes if n.name == node)
                assert count <= cap


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_bestfit_uses_no_more_nodes_than_worstfit(n_updates, capacity, n_nodes):
    """On homogeneous nodes (the paper's testbed, §6.1 footnote), BestFit's
    packing never uses more nodes than the least connection spread.  (With
    heterogeneous capacities greedy BestFit is not bin-minimal in general.)"""
    nodes = [NodeCapacity(f"n{i}", float(capacity)) for i in range(n_nodes)]
    best = resolve_policy("placement", "bestfit").place(n_updates, nodes)
    worst = resolve_policy("placement", "worstfit").place(n_updates, nodes)
    assert best.node_count <= worst.node_count


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_bestfit_is_minimal_on_homogeneous_nodes(n_updates, capacity, n_nodes):
    """With unit demands on identical nodes, BestFit uses exactly
    ceil(n / capacity) nodes (clamped to the fleet size) — the minimum."""
    nodes = [NodeCapacity(f"n{i}", float(capacity)) for i in range(n_nodes)]
    plan = resolve_policy("placement", "bestfit").place(n_updates, nodes)
    if n_updates <= capacity * n_nodes:
        minimum = -(-n_updates // capacity)  # ceil division
        assert plan.node_count == minimum


# ---- EWMA ---------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_ewma_bounded_by_observations(observations):
    est = EwmaEstimator(0.7)
    for q in observations:
        est.update(q)
    assert min(observations) - 1e-6 <= est.value <= max(observations) + 1e-6


@given(
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_ewma_fixpoint_is_constant_input(alpha, value):
    est = EwmaEstimator(alpha)
    for _ in range(5):
        est.update(value)
    assert est.value == np.float64(value) or abs(est.value - value) < 1e-6


# ---- hierarchy ------------------------------------------------------------------

@given(
    st.dictionaries(
        st.sampled_from([f"node{i}" for i in range(6)]),
        st.integers(min_value=0, max_value=64),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_hierarchy_plan_always_valid_and_covers_demand(pending, per_leaf):
    plan = plan_hierarchy(pending, updates_per_leaf=per_leaf)
    active = {n: q for n, q in pending.items() if q > 0}
    if not active:
        assert not plan.aggregators
        return
    plan.validate()
    parents = {s.parent for s in plan.aggregators.values() if s.parent}
    frontier = [s for s in plan.aggregators.values() if s.agg_id not in parents]
    assert sum(s.fan_in for s in frontier) == sum(active.values())


# ---- object store -----------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=12))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_object_store_refcount_conservation(sizes):
    with SharedMemoryObjectStore(node="prop") as store:
        keys = [store.put(np.zeros(n, dtype=np.float32)) for n in sizes]
        for key in keys:
            assert store.release(key) is True
        assert store.bytes_in_use == 0
        assert store.total_puts == store.total_frees == len(sizes)


# ---- processor-sharing link ----------------------------------------------------------

@given(st.lists(st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_link_work_conservation(sizes):
    env = Environment()
    link = ProcessorSharingLink(env, capacity_bps=1000.0)
    for s in sizes:
        link.transfer(s)
    env.run()
    lower_bound = sum(sizes) / 1000.0
    assert env.now >= lower_bound * (1 - 1e-6)
    assert link.active_flows == 0
