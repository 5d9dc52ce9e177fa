"""Fig. 10 — time series of arrival rate, active aggregators, CPU/round.

Reuses the Fig. 9 workload runs and extracts, per system:

* (a)/(d) update arrival rate per minute — fluctuating for the mobile
  ResNet-18 population, stable for the ResNet-152 servers;
* (b)/(e) number of active aggregators over time — SF flat at its
  always-on allocation; SL/LIFL load-proportional;
* (c)/(f) cumulative CPU time per round — SL ≫ SF > LIFL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import WorkloadResult
from repro.experiments.common import render_table
from repro.experiments.fig09_fl_workloads import (
    RESNET18_SETUP,
    RESNET152_SETUP,
    SETUPS,
    SYSTEMS,
    WorkloadSetup,
    run as run_fig09,
    run_system,
)
from repro.scenarios.registry import ScenarioRun, scenario

__all__ = [
    "RESNET18_SETUP",
    "RESNET152_SETUP",
    "SeriesPoint",
    "extract_series",
    "run",
    "summarize",
]


@dataclass
class SeriesPoint:
    wall_hours: float
    arrivals_per_minute: float
    active_aggregators: int
    cpu_per_round: float


def extract_series(result: WorkloadResult) -> list[SeriesPoint]:
    points = []
    for s in result.samples:
        points.append(
            SeriesPoint(
                wall_hours=(s.start_time + s.duration) / 3600.0,
                arrivals_per_minute=s.arrivals_per_minute,
                active_aggregators=s.active_aggregators,
                cpu_per_round=s.cpu_total,
            )
        )
    return points


def run(setup: WorkloadSetup, seed: int = 5, max_rounds: int | None = None) -> dict[str, list[SeriesPoint]]:
    results = run_fig09(setup, seed=seed, max_rounds=max_rounds)
    return {name: extract_series(res) for name, res in results.items()}


def summarize(series: dict[str, list[SeriesPoint]]) -> list[tuple]:
    rows = []
    for name, points in series.items():
        if not points:
            continue
        mean_rate = sum(p.arrivals_per_minute for p in points) / len(points)
        mean_active = sum(p.active_aggregators for p in points) / len(points)
        mean_cpu = sum(p.cpu_per_round for p in points) / len(points)
        rows.append((name, f"{mean_rate:.0f}", f"{mean_active:.0f}", f"{mean_cpu:.0f}"))
    return rows


def _render(rows: list[dict]) -> str:
    lines = []
    for tag in SETUPS:
        lines.append(f"Fig. 10 — {tag} (first 30 rounds)")
        lines.append(
            render_table(
                ["system", "arrivals/min", "active aggs (mean)", "CPU/round (s)"],
                [
                    (r["system"], r["arrivals_per_min"], r["active_aggs"], r["cpu_per_round"])
                    for r in rows
                    if r["setup"] == tag
                ],
            )
        )
        lines.append("")
    return "\n".join(lines)


@scenario(
    name="fig10",
    title="time series of arrival rate, active aggregators, CPU/round",
    grid={"setup": tuple(SETUPS), "system": SYSTEMS},
    render=_render,
    workload="Fig. 9 workloads, first 30 rounds",
    metrics=("arrivals_per_min", "active_aggs", "cpu_per_round"),
    tags=('paper',),
)
def fig10_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 10: per-(setup, system) series means over the first 30 rounds."""
    setup = SETUPS[run_spec.params["setup"]]
    system = run_spec.params["system"]
    points = extract_series(run_system(setup, system, max_rounds=30))
    summary = summarize({system: points})
    if not summary:
        return []
    name, rate, active, cpu = summary[0]
    return [
        {
            "setup": setup.tag,
            "system": name,
            "arrivals_per_min": rate,
            "active_aggs": active,
            "cpu_per_round": cpu,
        }
    ]
