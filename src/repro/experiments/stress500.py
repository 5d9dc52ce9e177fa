"""500-node multi-tenant stress scenario (non-paper).

``stress50`` pushed one round an order of magnitude past the paper's
testbed; this scenario pushes the *cluster* another order: a 500-node
fleet (10,000-update capacity) running 2–4 concurrent tenant rounds of 300
ResNet-152 updates each on ONE shared fabric.  Tenants keep their own
aggregator trees and ingress resources but every inter-node byte contends
on the same processor-sharing NIC links — the isolation question a
multi-tenant aggregation service has to answer.

Expected shape: LIFL's locality-aware packing barely touches the wire, so
its per-tenant ACT is nearly flat in the tenant count; SL-H's
locality-agnostic spread crosses nodes for most updates, so added tenants
compound on the shared links.  Like stress50, the steady-state round (warm
pool stocked) is what is measured.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import ratio, render_table
from repro.scenarios.registry import ScenarioRun, scenario
from repro.workloads.arrival import concurrent_arrivals

N_NODES = 500
TENANT_BATCH = 300
TENANT_COUNTS = (2, 3, 4)
SYSTEMS = ("LIFL", "SL-H")
ARRIVAL_JITTER_S = 3.0


def run_cell(system: str, tenants: int, seed: int = 1) -> dict:
    """One steady-state multi-tenant round on the 500-node cluster."""
    cfg = PlatformConfig.lifl() if system == "LIFL" else PlatformConfig.sl_h()
    nodes = [f"node{i:03d}" for i in range(N_NODES)]
    platform = AggregationPlatform(cfg, node_names=nodes)
    batches = [
        [
            (t, 1.0)
            for t in concurrent_arrivals(
                TENANT_BATCH,
                jitter=ARRIVAL_JITTER_S,
                rng=make_rng(seed, f"stress500-t{k}"),
            )
        ]
        for k in range(tenants)
    ]
    platform.run_multi_tenant(batches, RESNET152_BYTES)  # warm the pool
    results = platform.run_multi_tenant(batches, RESNET152_BYTES)
    acts = [r.act for r in results]
    return {
        "system": system,
        "tenants": tenants,
        "mean_act_s": sum(acts) / len(acts),
        "max_act_s": max(acts),
        "cpu_s": sum(r.cpu_total for r in results),
        "cross_node_transfers": sum(r.cross_node_transfers for r in results),
        "aggregators_reused": sum(r.aggregators_reused for r in results),
        "updates": tenants * TENANT_BATCH,
    }


def _render(rows: list[dict]) -> str:
    lines = [
        f"Stress 500 — {N_NODES} nodes (MC=20), {TENANT_BATCH}-update tenants "
        f"sharing one fabric"
    ]
    lines.append(
        render_table(
            ["system", "tenants", "mean ACT (s)", "max ACT (s)", "CPU (s)", "x-node", "# reused"],
            [
                (
                    r["system"],
                    r["tenants"],
                    f"{r['mean_act_s']:.1f}",
                    f"{r['max_act_s']:.1f}",
                    f"{r['cpu_s']:.0f}",
                    r["cross_node_transfers"],
                    r["aggregators_reused"],
                )
                for r in rows
            ],
        )
    )
    by = {(r["system"], r["tenants"]): r for r in rows}
    gaps = []
    for tenants in TENANT_COUNTS:
        slh = by.get(("SL-H", tenants))
        lifl = by.get(("LIFL", tenants))
        if slh and lifl:
            gaps.append(f"{tenants}: {ratio(slh['mean_act_s'], lifl['mean_act_s']):.2f}x")
    if gaps:  # absent under a single-system --filter
        lines.append("\nSL-H/LIFL mean-ACT ratio by tenant count: " + ", ".join(gaps))
    return "\n".join(lines)


@scenario(
    name="stress500-multitenant",
    title="500-node, 2-4 tenant shared-fabric stress (non-paper)",
    grid={"system": SYSTEMS, "tenants": TENANT_COUNTS},
    render=_render,
    workload=f"{N_NODES} nodes, {'/'.join(map(str, TENANT_COUNTS))} tenants x {TENANT_BATCH} ResNet-152 updates",
    metrics=("mean_act_s", "max_act_s", "cpu_s", "cross_node_transfers"),
    paper=False,
    tags=('chaos', 'scale'),
)
def stress500_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, tenant-count) cell; arrivals seeded like stress50."""
    return [run_cell(run_spec.params["system"], run_spec.params["tenants"])]
