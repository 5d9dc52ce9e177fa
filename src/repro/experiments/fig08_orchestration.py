"""Fig. 8 — LIFL's orchestration improvements, step by step.

Five nodes (MC_i = 20 each), ResNet-152 updates arriving concurrently at
the aggregation service; batch sizes 20/60/100.  Configurations:

* **SL-H** — LIFL's shm data plane under a vanilla serverless control
  plane: least connection (WorstFit) spread, locality-agnostic pods,
  reactive cold starts, lazy aggregation;
* **+①** — locality-aware BestFit placement;
* **+①+②** — hierarchy planning with pre-planned (warm-by-round-start)
  instance creation;
* **+①+②+③** — opportunistic runtime reuse (steady state: the second
  identical round is measured, when the warm pool is stocked);
* **+①+②+③+④** — eager aggregation (full LIFL).

Reported per batch size: ACT, cumulative CPU time, aggregators created,
nodes used — Fig. 8(a)–(d).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario
from repro.workloads.arrival import concurrent_arrivals

BATCHES = (20, 60, 100)
ARRIVAL_JITTER_S = 3.0

CONFIGS: list[tuple[str, PlatformConfig]] = [
    ("SL-H", PlatformConfig.sl_h()),
    ("+1", PlatformConfig.sl_h(placement_policy="bestfit", locality_aware=True)),
    (
        "+1+2",
        PlatformConfig.sl_h(placement_policy="bestfit", locality_aware=True, prewarm=True),
    ),
    (
        "+1+2+3",
        PlatformConfig.sl_h(
            placement_policy="bestfit", locality_aware=True, prewarm=True, reuse=True
        ),
    ),
    ("+1+2+3+4", PlatformConfig.lifl()),
]


@dataclass
class Fig8Row:
    config: str
    batch: int
    act_s: float
    cpu_s: float
    aggregators_created: int
    nodes_used: int


def run_cell(config: str, batch: int, seed: int = 1, steady_state: bool = True) -> Fig8Row:
    """One (configuration, batch-size) cell of Fig. 8."""
    cfg = dict(CONFIGS)[config]
    platform = AggregationPlatform(cfg)
    arrivals = [
        (t, 1.0)
        for t in concurrent_arrivals(batch, jitter=ARRIVAL_JITTER_S, rng=make_rng(seed, "jit"))
    ]
    result = platform.run_round(arrivals, RESNET152_BYTES, include_eval=False)
    if steady_state:
        # Measure the second identical round so reuse (③) operates
        # with a stocked warm pool.
        result = platform.run_round(arrivals, RESNET152_BYTES, include_eval=False)
    return Fig8Row(
        config=config,
        batch=batch,
        act_s=result.act,
        cpu_s=result.cpu_total,
        aggregators_created=result.aggregators_created,
        nodes_used=result.nodes_used,
    )


def run(seed: int = 1, steady_state: bool = True) -> list[Fig8Row]:
    return [
        run_cell(name, batch, seed=seed, steady_state=steady_state)
        for name, _ in CONFIGS
        for batch in BATCHES
    ]


def act_ratio(rows: list[Fig8Row], a: str, b: str, batch: int) -> float:
    ra = next(r for r in rows if r.config == a and r.batch == batch)
    rb = next(r for r in rows if r.config == b and r.batch == batch)
    return ra.act_s / rb.act_s


def _render(rows: list[dict]) -> str:
    typed = [Fig8Row(**r) for r in rows]
    lines = ["Fig. 8 — orchestration ablation (5 nodes, MC=20, ResNet-152)"]
    lines.append(
        render_table(
            ["config", "batch", "ACT (s)", "CPU (s)", "# created", "# nodes"],
            [
                (
                    r["config"],
                    r["batch"],
                    f"{r['act_s']:.1f}",
                    f"{r['cpu_s']:.0f}",
                    r["aggregators_created"],
                    r["nodes_used"],
                )
                for r in rows
            ],
        )
    )
    lines.append(
        f"\nACT ratios at 20 updates: SL-H/+1 = {act_ratio(typed, 'SL-H', '+1', 20):.2f}x "
        f"(paper 2.1x); at 60: {act_ratio(typed, 'SL-H', '+1', 60):.2f}x (paper 1.13x)"
    )
    lines.append(
        f"+1 over +1+2+3 = {act_ratio(typed, '+1', '+1+2+3', 20):.2f}x (paper ~1.22x); "
        f"lazy over eager = {act_ratio(typed, '+1+2+3', '+1+2+3+4', 20):.2f}x (paper ~1.2x)"
    )
    return "\n".join(lines)


@scenario(
    name="fig08",
    title="LIFL's orchestration improvements, step by step",
    grid={"config": tuple(name for name, _ in CONFIGS), "batch": BATCHES},
    render=_render,
    workload="5 nodes, MC=20, ResNet-152, batches 20/60/100",
    metrics=("act_s", "cpu_s", "aggregators_created", "nodes_used"),
    tags=('paper',),
)
def fig08_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 8: one (configuration, batch) ablation cell per run."""
    row = run_cell(run_spec.params["config"], run_spec.params["batch"])
    return [
        {
            "config": row.config,
            "batch": row.batch,
            "act_s": row.act_s,
            "cpu_s": row.cpu_s,
            "aggregators_created": row.aggregators_created,
            "nodes_used": row.nodes_used,
        }
    ]
