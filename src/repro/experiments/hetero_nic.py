"""Heterogeneous-NIC fleet sweep (non-paper scenario).

The paper's testbed is homogeneous (10 Gb NICs everywhere).  Real clusters
mix generations: this scenario runs the same concurrent-update round on
fleets whose nodes cycle through 1 / 10 / 100 Gbps NICs, comparing LIFL
against SL-H.  Expected shape: LIFL's locality-aware placement keeps most
bytes off the wire, so it degrades mildly as slow NICs enter the mix; the
locality-agnostic SL-H control plane pushes most updates across nodes and
pays for every 1 Gbps NIC in its path.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import ratio, render_table
from repro.scenarios.registry import ScenarioRun, derive_seed, scenario
from repro.workloads.arrival import concurrent_arrivals

N_NODES = 16
BATCH = 96
ARRIVAL_JITTER_S = 3.0
GBPS = 1.25e8  # 1 Gb/s in bytes/s

#: NIC capacity cycles, applied round-robin over the node list
PROFILES: dict[str, tuple[float, ...]] = {
    "10G uniform": (10 * GBPS,),
    "1G/10G mix": (GBPS, 10 * GBPS),
    "1G/10G/100G mix": (GBPS, 10 * GBPS, 100 * GBPS),
}
SYSTEMS = ("LIFL", "SL-H")


def nic_map(profile: str, node_names: list[str]) -> dict[str, float]:
    cycle = PROFILES[profile]
    return {name: cycle[i % len(cycle)] for i, name in enumerate(node_names)}


def run_cell(profile: str, system: str, seed: int) -> dict:
    cfg = PlatformConfig.lifl() if system == "LIFL" else PlatformConfig.sl_h()
    nodes = [f"node{i:02d}" for i in range(N_NODES)]
    platform = AggregationPlatform(
        cfg, node_names=nodes, nic_bps_by_node=nic_map(profile, nodes)
    )
    arrivals = [
        (t, 1.0)
        for t in concurrent_arrivals(
            BATCH, jitter=ARRIVAL_JITTER_S, rng=make_rng(seed, "hetero-arrivals")
        )
    ]
    # Steady state, like the stress scenarios: warm round, then measure.
    platform.run_round(arrivals, RESNET152_BYTES, include_eval=False, record_timeline=False)
    result = platform.run_round(
        arrivals, RESNET152_BYTES, include_eval=False, record_timeline=False
    )
    return {
        "profile": profile,
        "system": system,
        "act_s": result.act,
        "cpu_s": result.cpu_total,
        "cross_node_transfers": result.cross_node_transfers,
        "nodes_used": result.nodes_used,
    }


def _render(rows: list[dict]) -> str:
    lines = [f"Heterogeneous NICs — {N_NODES} nodes, {BATCH} concurrent ResNet-152 updates"]
    lines.append(
        render_table(
            ["profile", "system", "ACT (s)", "CPU (s)", "x-node", "# nodes"],
            [
                (
                    r["profile"],
                    r["system"],
                    f"{r['act_s']:.1f}",
                    f"{r['cpu_s']:.0f}",
                    r["cross_node_transfers"],
                    r["nodes_used"],
                )
                for r in rows
            ],
        )
    )
    by = {(r["profile"], r["system"]): r for r in rows}
    gaps = []
    for profile in PROFILES:
        slh = by.get((profile, "SL-H"))
        lifl = by.get((profile, "LIFL"))
        if slh and lifl:
            gaps.append(f"{profile}: {ratio(slh['act_s'], lifl['act_s']):.2f}x")
    if gaps:  # absent under a single-system --filter
        lines.append("\nSL-H/LIFL ACT ratio by NIC profile: " + ", ".join(gaps))
    return "\n".join(lines)


@scenario(
    name="hetero-nic",
    title="mixed 1/10/100 Gbps fleet sweep (non-paper)",
    grid={"profile": tuple(PROFILES), "system": SYSTEMS},
    render=_render,
    workload=f"{N_NODES} nodes cycling NIC speeds, {BATCH} ResNet-152 updates",
    metrics=("act_s", "cpu_s", "cross_node_transfers"),
    paper=False,
    tags=('chaos', 'workload'),
)
def hetero_nic_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (NIC profile, system) cell of the heterogeneity sweep."""
    profile = run_spec.params["profile"]
    # Both systems at one profile must see the same arrival trace, so the
    # workload seed depends on the profile (and campaign seed), not the run.
    seed = derive_seed(
        run_spec.campaign_seed, "hetero-nic", list(PROFILES).index(profile)
    )
    return [run_cell(profile, run_spec.params["system"], seed=seed)]
