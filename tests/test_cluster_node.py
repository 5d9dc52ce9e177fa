"""Worker nodes: hardware spec and CPU ledger."""

from __future__ import annotations

import pytest

from repro.cluster.node import CpuAccount, NodeSpec
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
