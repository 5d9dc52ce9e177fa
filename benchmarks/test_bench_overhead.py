"""§6.1 orchestration overheads + Appendix E capacity probe."""

from __future__ import annotations

import pytest

from repro.controlplane.metrics import EwmaEstimator
from repro.controlplane.placement import NodeCapacity
from repro.core.policies import resolve_policy
from repro.experiments import capacity


@pytest.fixture(scope="module")
def big_fleet():
    return [NodeCapacity(f"node{i}", 120) for i in range(100)]


def test_bench_placement_10k_clients(benchmark, big_fleet):
    """Paper budget: < 17 ms for 10K clients."""
    placer = resolve_policy("placement", "bestfit")
    plan = benchmark(placer.place, 10_000, big_fleet)
    assert sum(plan.per_node.values()) == 10_000
    assert benchmark.stats.stats.mean < 0.017


def test_bench_placement_1k_clients(benchmark, big_fleet):
    placer = resolve_policy("placement", "bestfit")
    benchmark(placer.place, 1_000, big_fleet)
    assert benchmark.stats.stats.mean < 0.017


def test_bench_ewma_estimate(benchmark):
    """Paper: 0.2 ms per estimate."""
    est = EwmaEstimator(0.7)
    benchmark(est.update, 12.0)
    assert benchmark.stats.stats.mean < 0.2e-3


def test_bench_capacity_probe(benchmark):
    """Appendix E: MC estimation lands near the testbed's 20."""
    points = benchmark.pedantic(capacity.probe_node, rounds=1, iterations=1)
    assert capacity.estimate_mc(points) == pytest.approx(20.0, rel=0.25)
