"""Metrics server and the per-node agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, RoutingError
from repro.controlplane.agent import NodeAgent
from repro.controlplane.hierarchy import plan_hierarchy
from repro.controlplane.metrics import MetricsServer


def make_metrics(n_nodes=5, mc=20):
    ms = MetricsServer()
    for i in range(n_nodes):
        ms.register_node(f"node{i}", mc)
    return ms


def test_metrics_server_report_and_estimates():
    ms = make_metrics(2)
    ms.report("node0", arrival_rate=4.0, exec_time=0.5, updates_seen=8, now=10.0)
    m = ms.node_metrics("node0")
    assert m.queue_estimate == pytest.approx(2.0)
    assert m.residual_capacity == pytest.approx(18.0)
    assert m.updates_seen == 8
    assert ms.queue_estimates() == pytest.approx({"node0": 2.0, "node1": 0.0})


def test_metrics_server_validation():
    ms = make_metrics(1)
    with pytest.raises(ConfigError):
        ms.register_node("node0", 20)  # duplicate
    with pytest.raises(ConfigError):
        ms.register_node("bad", 0)
    with pytest.raises(ConfigError):
        ms.report("ghost", 1.0, 1.0)
    with pytest.raises(ConfigError):
        ms.report("node0", -1.0, 1.0)


def test_agent_registers_and_routes(tmp_path):
    ms = MetricsServer()
    ms.register_node("n0", 20)
    ms.register_node("n1", 20)

    class Mailbox:
        def __init__(self):
            self.items = []

        def deliver(self, src, key, dst):
            self.items.append((src, key, dst))

    with NodeAgent("n0", ms) as a0, NodeAgent("n1", ms) as a1:
        agents = {"n0": a0, "n1": a1}
        plan = plan_hierarchy({"n0": 4, "n1": 4}, top_node="n0")
        # register local aggregator sockets
        mailboxes = {}
        for agg_id, spec in plan.aggregators.items():
            mb = Mailbox()
            mailboxes[agg_id] = mb
            agents[spec.node].register_aggregator(agg_id, mb)
        for agent in agents.values():
            agent.apply_routes(plan, agents)
        # leaf on n1 sends through its router; ends up at the top on n0
        n1_aggs = [s for s in plan.aggregators.values() if s.node == "n1"]
        src = n1_aggs[0]
        arr = np.arange(4, dtype=np.float32)
        key = a1.store.put(arr)
        a1.router.send(src.agg_id, key)
        parent = plan.aggregators[src.parent]
        if parent.node == "n0":
            assert len(mailboxes[parent.agg_id].items) == 1


def test_agent_metrics_drain_reports(tmp_path):
    ms = MetricsServer()
    ms.register_node("n0", 20)
    with NodeAgent("n0", ms) as agent:
        agent.metrics_map.on_aggregate("a1", 0.5)
        agent.metrics_map.on_aggregate("a1", 1.5)
        out = agent.drain_metrics(now=1.0, window=2.0)
        assert out["arrival_rate"] == pytest.approx(1.0)
        assert out["exec_time"] == pytest.approx(1.0)
        assert ms.node_metrics("n0").arrival_rate == pytest.approx(1.0)
        # second drain with empty map: rates go to zero
        out2 = agent.drain_metrics(now=2.0, window=2.0)
        assert out2["arrival_rate"] == 0.0


def test_agent_checkpointing(tmp_path):
    with NodeAgent("n0", checkpoint_dir=str(tmp_path)) as agent:
        agent.checkpoint_model(1, {"w": np.ones(3)})
        agent.checkpoints.flush()
        assert agent.checkpoints.versions_on_disk() == [1]


def test_agent_checkpoint_unconfigured():
    with NodeAgent("n0") as agent:
        with pytest.raises(RoutingError):
            agent.checkpoint_model(1, {"w": np.ones(1)})


def test_agent_terminate_unknown_aggregator():
    with NodeAgent("n0") as agent:
        with pytest.raises(RoutingError):
            agent.terminate_aggregator("ghost")
