"""§6.1 "Orchestration overhead of LIFL" — control-plane costs.

Paper numbers: locality-aware placement completes in **< 17 ms even with
10K clients** (the largest client count in Google's production FL stack);
the EWMA estimator costs **0.2 ms per estimate** against a 2-minute re-plan
cycle; reuse and eager aggregation add no control-plane work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.controlplane.metrics import EwmaEstimator
from repro.controlplane.placement import NodeCapacity
from repro.core.policies import resolve_policy
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario


@dataclass
class OverheadRow:
    operation: str
    measured_ms: float
    paper_budget_ms: float


def time_placement(n_clients: int, n_nodes: int = 100, repeats: int = 5) -> float:
    """Best (most stable) wall time of one full placement, in ms."""
    placer = resolve_policy("placement", "bestfit")
    nodes = [NodeCapacity(f"node{i}", max_capacity=max(20, n_clients // n_nodes + 5)) for i in range(n_nodes)]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        placer.place(n_clients, nodes)
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def time_ewma(estimates: int = 1000) -> float:
    """Mean ms per EWMA estimate."""
    est = EwmaEstimator(0.7)
    t0 = time.perf_counter()
    for i in range(estimates):
        est.update(float(i % 50))
    return (time.perf_counter() - t0) * 1e3 / estimates


def run() -> list[OverheadRow]:
    return [
        OverheadRow("placement, 1K clients", time_placement(1000), 17.0),
        OverheadRow("placement, 10K clients", time_placement(10_000), 17.0),
        OverheadRow("EWMA per estimate", time_ewma(), 0.2),
    ]


def _render(rows: list[dict]) -> str:
    return "§6.1 — orchestration overhead\n" + render_table(
        ["operation", "measured (ms)", "paper budget (ms)"],
        [(r["operation"], f"{r['measured_ms']:.3f}", r["paper_budget_ms"]) for r in rows],
    )


@scenario(
    name="overhead",
    title="orchestration overhead of LIFL (control-plane wall time)",
    render=_render,
    workload="placement at 1K/10K clients, EWMA estimates",
    metrics=("measured_ms",),
    tags=('paper',),
)
def overhead_scenario(run_spec: ScenarioRun) -> list[dict]:
    """§6.1: wall-clock measurements — rows vary run to run by nature."""
    return [
        {
            "operation": r.operation,
            "measured_ms": r.measured_ms,
            "paper_budget_ms": r.paper_budget_ms,
        }
        for r in run()
    ]
