"""Large-scale 50-node stress scenario (non-paper).

The paper's testbed tops out at 5 aggregation nodes and 100 concurrent
updates (Fig. 8).  This scenario pushes the same round engine an order of
magnitude further — a 50-node cluster (MC_i = 20 each, 1000-update
capacity) absorbing batches of 250/500/900 concurrent ResNet-152 updates —
to check that the orchestration story survives scale: LIFL should keep
packing updates onto few nodes, reuse warm runtimes in steady state, and
stay ahead of the reactive SL-H control plane on both ACT and CPU.

Like Fig. 8, the steady-state round (the second identical round, warm pool
stocked) is what is measured.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import ratio, render_table
from repro.scenarios.registry import ScenarioRun, scenario
from repro.workloads.arrival import concurrent_arrivals

N_NODES = 50
BATCHES = (250, 500, 900)
SYSTEMS = ("LIFL", "SL-H")
ARRIVAL_JITTER_S = 3.0


def run_cell(system: str, batch: int, seed: int = 1) -> dict:
    """One steady-state round of ``batch`` updates on the 50-node cluster."""
    cfg = PlatformConfig.lifl() if system == "LIFL" else PlatformConfig.sl_h()
    nodes = [f"node{i:02d}" for i in range(N_NODES)]
    platform = AggregationPlatform(cfg, node_names=nodes)
    arrivals = [
        (t, 1.0)
        for t in concurrent_arrivals(
            batch, jitter=ARRIVAL_JITTER_S, rng=make_rng(seed, "stress")
        )
    ]
    # Telemetry off: a 900-update round logs tens of thousands of timeline
    # bars nobody reads; the stress rows only use the scalar results.
    platform.run_round(arrivals, RESNET152_BYTES, include_eval=False, record_timeline=False)
    result = platform.run_round(arrivals, RESNET152_BYTES, include_eval=False, record_timeline=False)
    return {
        "system": system,
        "batch": batch,
        "act_s": result.act,
        "cpu_s": result.cpu_total,
        "aggregators_created": result.aggregators_created,
        "aggregators_reused": result.aggregators_reused,
        "nodes_used": result.nodes_used,
        "cross_node_transfers": result.cross_node_transfers,
    }


def _render(rows: list[dict]) -> str:
    lines = [f"Stress — {N_NODES} nodes (MC=20), concurrent ResNet-152 updates"]
    lines.append(
        render_table(
            ["system", "batch", "ACT (s)", "CPU (s)", "# created", "# reused", "# nodes", "x-node"],
            [
                (
                    r["system"],
                    r["batch"],
                    f"{r['act_s']:.1f}",
                    f"{r['cpu_s']:.0f}",
                    r["aggregators_created"],
                    r["aggregators_reused"],
                    r["nodes_used"],
                    r["cross_node_transfers"],
                )
                for r in rows
            ],
        )
    )
    by = {(r["system"], r["batch"]): r for r in rows}
    speedups = []
    for batch in BATCHES:
        slh = by.get(("SL-H", batch))
        lifl = by.get(("LIFL", batch))
        if slh and lifl:
            speedups.append(f"{batch}: {ratio(slh['act_s'], lifl['act_s']):.2f}x")
    lines.append("\nSL-H/LIFL ACT ratio by batch: " + ", ".join(speedups))
    return "\n".join(lines)


@scenario(
    name="stress50",
    title="50-node, 900-update stress round (non-paper)",
    grid={"system": SYSTEMS, "batch": BATCHES},
    render=_render,
    workload=f"{N_NODES} nodes, batches {'/'.join(map(str, BATCHES))}, ResNet-152",
    metrics=("act_s", "cpu_s", "nodes_used", "cross_node_transfers"),
    paper=False,
    tags=('perf',),
)
def stress50_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, batch) stress cell; arrivals seeded like Fig. 8."""
    return [run_cell(run_spec.params["system"], run_spec.params["batch"])]
