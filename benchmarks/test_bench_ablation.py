"""Ablations of LIFL's design choices (DESIGN.md §5).

Not a paper figure — these probe the constants the paper fixes by fiat:
placement policy, EWMA α, updates-per-leaf I, eager vs lazy under arrival
spread, and reuse vs cold-start cost.
"""

from __future__ import annotations

import pytest

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.controlplane.metrics import EwmaEstimator
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.workloads.arrival import staggered_arrivals


def run_platform(cfg, n=20, spread=3.0, rounds=2):
    plat = AggregationPlatform(cfg)
    arr = [(t, 1.0) for t in staggered_arrivals(n, spread)]
    result = None
    for _ in range(rounds):
        result = plat.run_round(arr, RESNET152_BYTES, include_eval=False)
    return result


@pytest.mark.parametrize("policy", ["bestfit", "firstfit", "worstfit"])
def test_bench_ablation_placement_policy(benchmark, policy):
    cfg = PlatformConfig.lifl(placement_policy=policy)
    result = benchmark.pedantic(run_platform, args=(cfg,), rounds=1, iterations=1)
    assert result.act > 0
    if policy == "bestfit":
        assert result.nodes_used == 1
    if policy == "worstfit":
        assert result.nodes_used == 5


@pytest.mark.parametrize("updates_per_leaf", [1, 2, 4, 8])
def test_bench_ablation_updates_per_leaf(benchmark, updates_per_leaf):
    """The paper's I=2: small I maximizes leaf parallelism (§5.2)."""
    cfg = PlatformConfig.lifl(updates_per_leaf=updates_per_leaf)
    result = benchmark.pedantic(run_platform, args=(cfg,), rounds=1, iterations=1)
    assert result.act > 0


def test_ablation_small_i_beats_huge_i():
    small = run_platform(PlatformConfig.lifl(updates_per_leaf=2), n=20, spread=6.0)
    huge = run_platform(PlatformConfig.lifl(updates_per_leaf=20), n=20, spread=6.0)
    assert small.act < huge.act  # one giant leaf serializes everything


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 0.9])
def test_bench_ablation_ewma_alpha(benchmark, alpha):
    """α=0.7's damping behaviour vs alternatives on a spiky load trace."""
    rng = make_rng(0, f"ewma{alpha}")
    trace = [20.0 + (80.0 if rng.uniform() < 0.1 else 0.0) for _ in range(500)]

    def run():
        est = EwmaEstimator(alpha)
        for q in trace:
            est.update(q)
        return est.value

    value = benchmark(run)
    assert 20.0 <= value <= 100.0


def test_ablation_eager_gain_grows_with_spread():
    gains = []
    for spread in (0.0, 10.0):
        eager = run_platform(PlatformConfig.lifl(eager=True), n=16, spread=spread)
        lazy = run_platform(PlatformConfig.lifl(eager=False), n=16, spread=spread)
        gains.append(lazy.act - eager.act)
    assert gains[1] >= gains[0] - 1e-6


@pytest.mark.parametrize("cold_start", [0.5, 2.0, 8.0])
def test_bench_ablation_reuse_vs_cold_cost(benchmark, cold_start):
    """Reuse's benefit scales with the cold-start penalty it avoids."""
    no_reuse = PlatformConfig.lifl(reuse=False, prewarm=False, cold_start_latency=cold_start)
    with_reuse = PlatformConfig.lifl(cold_start_latency=cold_start)
    cold = benchmark.pedantic(run_platform, args=(no_reuse,), rounds=1, iterations=1)
    warm = run_platform(with_reuse)
    assert warm.act <= cold.act + 1e-6
