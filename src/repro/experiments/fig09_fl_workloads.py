"""Fig. 9 — time-to-accuracy and cost-to-accuracy for real FL workloads.

Two §6.2 setups, run end to end on each platform:

* **ResNet-18**: 2,800-client mobile population, 120 simultaneously active,
  hibernation in [0, 60] s, aggregation goal 60 — fluctuating arrivals;
* **ResNet-152**: always-on server clients, 15 active, goal 12 — stable
  arrivals.

Paper headlines: to 70 % accuracy, ResNet-18 — LIFL 0.9 h / SF 1.4 h (1.6×)
/ SL 2.4 h (2.7×) wall clock and 4.5 / 8 (1.8×) / 26 (5×+) CPU-hours;
ResNet-152 — LIFL 1.9 h, 1.68× faster than SL with 4.23× fewer CPU cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.results import WorkloadResult
from repro.core.rounds import FLWorkloadConfig, run_fl_workload
from repro.experiments.common import render_table
from repro.fl.convergence import curve_for
from repro.fl.model import model_spec
from repro.scenarios.registry import ScenarioRun, scenario
from repro.workloads.fedscale import MOBILE_PROFILE, SERVER_PROFILE, make_population


@dataclass(frozen=True)
class WorkloadSetup:
    """One of the two §6.2 configurations."""

    tag: str
    model: str
    mobile: bool
    population: int
    active_clients: int
    aggregation_goal: int
    sf_instances: int
    max_rounds: int = 250


RESNET18_SETUP = WorkloadSetup(
    tag="ResNet-18",
    model="resnet18",
    mobile=True,
    population=2800,
    active_clients=120,
    aggregation_goal=60,
    sf_instances=60,  # Fig. 10(b): SF keeps ~60 aggregators always on
)
RESNET152_SETUP = WorkloadSetup(
    tag="ResNet-152",
    model="resnet152",
    mobile=False,
    population=200,
    active_clients=15,
    aggregation_goal=12,
    sf_instances=9,  # Fig. 10(e): ~9 always-on aggregators
)


def platforms_for(setup: WorkloadSetup) -> list[tuple[str, AggregationPlatform]]:
    return [
        ("LIFL", AggregationPlatform(PlatformConfig.lifl())),
        ("SF", AggregationPlatform(PlatformConfig.serverful(instances=setup.sf_instances))),
        ("SL", AggregationPlatform(PlatformConfig.serverless())),
    ]


SETUPS = {"ResNet-18": RESNET18_SETUP, "ResNet-152": RESNET152_SETUP}
SYSTEMS = ("LIFL", "SF", "SL")


def run_system(
    setup: WorkloadSetup, system: str, seed: int = 5, max_rounds: int | None = None
) -> WorkloadResult:
    """One (setup, system) cell: the full FL workload on one platform."""
    spec = model_spec(setup.model)
    profile = MOBILE_PROFILE if setup.mobile else SERVER_PROFILE
    population = make_population(setup.population, spec, profile, seed=0)
    wl = FLWorkloadConfig(
        spec=spec,
        curve=curve_for(setup.model),
        aggregation_goal=setup.aggregation_goal,
        active_clients=setup.active_clients,
        rounds=max_rounds or setup.max_rounds,
        stop_at_target=True,
    )
    platform = next(p for name, p in platforms_for(setup) if name == system)
    return run_fl_workload(platform, population, wl, make_rng(seed, system))


def run(setup: WorkloadSetup, seed: int = 5, max_rounds: int | None = None) -> dict[str, WorkloadResult]:
    """All three systems through the same workload; returns per-system
    results keyed "LIFL"/"SF"/"SL"."""
    return {
        name: run_system(setup, name, seed=seed, max_rounds=max_rounds)
        for name in SYSTEMS
    }


PAPER = {
    "ResNet-18": {"LIFL": (0.9, 4.5), "SF": (1.4, 8.0), "SL": (2.4, 26.0)},
    "ResNet-152": {"LIFL": (1.9, 4.76), "SF": (2.2, 6.81), "SL": (3.2, 20.4)},
}


def _render(rows: list[dict]) -> str:
    lines = []
    for tag in SETUPS:
        lines.append(f"Fig. 9 — {tag}: time/cost to 70% accuracy")
        table = []
        for r in (r for r in rows if r["setup"] == tag):
            paper_tta, paper_cta = PAPER[tag][r["system"]]
            table.append(
                (
                    r["system"],
                    f"{r['tta_s'] / 3600:.2f}" if r["tta_s"] else "n/a",
                    f"{paper_tta:.2f}",
                    f"{r['cta_s'] / 3600:.2f}" if r["cta_s"] else "n/a",
                    f"{paper_cta:.2f}",
                    r["rounds"],
                )
            )
        lines.append(
            render_table(["system", "tta (h)", "paper", "CPU (h)", "paper", "rounds"], table)
        )
        lines.append("")
    return "\n".join(lines)


@scenario(
    name="fig09",
    title="time-to-accuracy and cost-to-accuracy for real FL workloads",
    grid={"setup": tuple(SETUPS), "system": SYSTEMS},
    render=_render,
    workload="FedScale-like populations, ResNet-18 mobile / ResNet-152 server",
    metrics=("tta_s", "cta_s", "rounds"),
    tags=('paper',),
)
def fig09_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 9: one (setup, system) full FL run per grid point."""
    setup = SETUPS[run_spec.params["setup"]]
    system = run_spec.params["system"]
    res = run_system(setup, system)
    return [
        {
            "setup": setup.tag,
            "system": system,
            "tta_s": res.time_to_accuracy(0.70),
            "cta_s": res.cost_to_accuracy(0.70),
            "rounds": res.rounds,
        }
    ]
