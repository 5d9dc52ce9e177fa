"""Fig. 4 — hierarchical aggregation barely helps on a kernel data plane.

Setup (§4.1): 8 remote trainers, ResNet-152, FEMNIST; aggregators on one
node.  *NH*: a single aggregator.  *WH*: one top + four leaf aggregators.
Paper result: 59.8 s/round (NH) vs 57 s/round (WH) — the hierarchy's
parallelism is eaten by network-processing contention; LIFL's shared-memory
data plane (Fig. 7(c)) brings the same hierarchy to 44.9 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.controlplane.hierarchy import AggregatorSpec, HierarchyPlan, Role
from repro.core.platform import PlatformConfig
from repro.core.results import RoundResult
from repro.core.roundsim import RoundEngine
from repro.core.updates import SimUpdate
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario

#: trainer local-epoch time for ResNet-152 on the testbed's trainer nodes
TRAIN_MEAN_S = 34.0
TRAIN_JITTER_S = 4.0
N_TRAINERS = 8


def _arrivals(seed: int) -> list[float]:
    rng = make_rng(seed, "fig4-trainers")
    return sorted(float(TRAIN_MEAN_S + rng.uniform(-TRAIN_JITTER_S, TRAIN_JITTER_S)) for _ in range(N_TRAINERS))


def _updates(times: list[float]) -> list[SimUpdate]:
    return [
        SimUpdate(uid=i, nbytes=RESNET152_BYTES, weight=1.0, arrival_time=t, node="node0", client_id=f"tr{i}")
        for i, t in enumerate(times)
    ]


def _nh_plan() -> HierarchyPlan:
    plan = HierarchyPlan()
    plan.aggregators["nh/top@node0"] = AggregatorSpec(
        "nh/top@node0", Role.TOP, "node0", fan_in=N_TRAINERS
    )
    plan.top_node = "node0"
    plan.validate()
    return plan


def _wh_plan() -> HierarchyPlan:
    plan = HierarchyPlan()
    top = AggregatorSpec("wh/top@node0", Role.TOP, "node0", fan_in=4)
    plan.aggregators[top.agg_id] = top
    plan.top_node = "node0"
    for i in range(4):
        leaf_id = f"wh/leaf{i}@node0"
        plan.aggregators[leaf_id] = AggregatorSpec(
            leaf_id, Role.LEAF, "node0", fan_in=2, parent=top.agg_id
        )
    plan.validate()
    return plan


@dataclass
class Fig4Row:
    setting: str
    round_seconds: float
    result: RoundResult


SETTINGS = ("NH (kernel)", "WH (kernel)", "WH (LIFL)")
PAPER_SECONDS = {"NH (kernel)": 59.8, "WH (kernel)": 57.0, "WH (LIFL)": 44.9}


def _setting(name: str) -> tuple[PlatformConfig, HierarchyPlan]:
    if name == "NH (kernel)":
        return PlatformConfig.serverful(instances=1), _nh_plan()
    if name == "WH (kernel)":
        return PlatformConfig.serverful(instances=5), _wh_plan()
    if name == "WH (LIFL)":
        return PlatformConfig.lifl(prewarm=True), _wh_plan()
    raise ValueError(f"unknown fig04 setting {name!r}")


def run_setting(name: str, seed: int = 0) -> Fig4Row:
    cfg, plan = _setting(name)
    engine = RoundEngine(cfg, ["node0"])
    result = engine.run_round(_updates(_arrivals(seed)), plan, include_eval=True)
    return Fig4Row(setting=name, round_seconds=result.completion_time, result=result)


def run(seed: int = 0) -> list[Fig4Row]:
    """Three settings: NH (kernel), WH (kernel), WH on LIFL's data plane."""
    return [run_setting(name, seed) for name in SETTINGS]


def _render(rows: list[dict]) -> str:
    lines = ["Fig. 4 / Fig. 7(c) — per-round time, 8 trainers, ResNet-152, one node"]
    lines.append(
        render_table(
            ["setting", "round (s)", "paper (s)"],
            [(r["setting"], r["round_seconds"], r["paper_s"]) for r in rows],
        )
    )
    lifl = next(r for r in rows if r["setting"] == "WH (LIFL)")
    lines.append("")
    lines.append("WH (LIFL) timeline (N=network, A=agg, E=eval, C=coldstart):")
    lines.append(lifl["timeline"])
    return "\n".join(lines)


@scenario(
    name="fig04",
    title="hierarchical aggregation barely helps on a kernel data plane",
    grid={"setting": SETTINGS},
    render=_render,
    workload="8 trainers, ResNet-152, one node",
    metrics=("round_seconds",),
    tags=('paper',),
)
def fig04_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 4 / Fig. 7(c): one (setting,) grid point per run."""
    setting = run_spec.params["setting"]
    row = run_setting(setting, seed=0)
    out: dict[str, object] = {
        "setting": row.setting,
        "round_seconds": row.round_seconds,
        "paper_s": PAPER_SECONDS[setting],
    }
    if setting == "WH (LIFL)":
        out["timeline"] = row.result.timeline.render_ascii(width=64)
    return [out]
