"""Worker nodes: CPU ledger and shm accounting."""

from __future__ import annotations

import pytest

from repro.cluster.node import CpuAccount, NodeSpec, WorkerNode
from repro.common.errors import SimulationError


def test_node_spec_defaults_match_testbed():
    spec = NodeSpec(name="n")
    assert spec.cores == 64
    assert spec.nic_bps == 1.25e9
    assert spec.max_service_capacity == 20


def test_node_spec_validation():
    with pytest.raises(SimulationError):
        NodeSpec(name="n", cores=0)
    with pytest.raises(SimulationError):
        NodeSpec(name="n", max_service_capacity=0)


def test_cpu_account_buckets():
    acct = CpuAccount()
    acct.charge("agg", 1.5)
    acct.charge("agg", 0.5)
    acct.charge("dataplane", 2.0)
    assert acct.get("agg") == pytest.approx(2.0)
    assert acct.total() == pytest.approx(4.0)
    with pytest.raises(SimulationError):
        acct.charge("agg", -1.0)


def test_execute_occupies_core_and_charges(env):
    node = WorkerNode(env, NodeSpec(name="n", cores=1))
    order = []

    def task(name):
        yield from node.execute(2.0, "aggregation")
        order.append((name, env.now))

    env.process(task("a"))
    env.process(task("b"))
    env.run()
    # One core: b runs after a.
    assert order == [("a", 2.0), ("b", 4.0)]
    assert node.cpu.get("aggregation") == pytest.approx(4.0)


def test_shm_accounting_and_high_water(env):
    node = WorkerNode(env, NodeSpec(name="n", memory_bytes=100.0))
    node.shm_alloc(60.0)
    node.shm_alloc(30.0)
    assert node.shm_high_water == pytest.approx(90.0)
    node.shm_free(50.0)
    assert node.shm_bytes_in_use == pytest.approx(40.0)
    with pytest.raises(SimulationError):
        node.shm_alloc(100.0)
    with pytest.raises(SimulationError):
        node.shm_free(999.0)

