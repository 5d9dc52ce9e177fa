"""100k-client, 10k-participant partitioned-round stress (non-paper).

``stress500-multitenant`` capped the record round at 500 nodes because
every client was a Python object and sharding could only split whole
tenants.  This scenario exercises the two refactors that lift that cap:

* the **struct-of-arrays population** (:mod:`repro.fl.population`) holds
  the 100k-client fleet as numpy arrays — availability masks, selection,
  and timing draws are single vectorized kernels;
* the **partitioned fabric protocol** (:mod:`repro.core.partition`) cuts
  each round's cohort across worker processes along the ``HierarchyPlan``
  boundary — leaf/mid aggregators run local to their cohort on their own
  environment and fabric, and only the per-node intermediate updates cross
  the partition into the root phase.

The round itself uses the ``gateway-coalesced`` ingress stage: one walker
process wakes each arrival batch instead of one heap entry per client.

The measured quantity is the steady-state round (warm pool stocked by a
first identical-shape round), and the **shards axis is a determinism
probe**: the partitioned protocol is exact, so ACT, CPU, and every
counter must be identical at shards=1/2/4 — the render flags any drift.
Wall-clock speedup is deliberately *not* a scenario row (rows must be
byte-deterministic across hosts); ``benchmarks/e2e/`` measures speed.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES
from repro.core.partition import PartitionedRoundEngine
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import render_table
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.scenarios.registry import ScenarioRun, scenario

SEED = 17
SCALES: dict[str, tuple[int, int, int]] = {
    # scale -> (clients, participants per round, nodes)
    "5k": (5_000, 500, 25),
    "100k": (100_000, 10_000, 500),
}
SHARD_AXIS = (1, 2, 4)
HORIZON_S = 600.0
MEAN_SESSION_S = 240.0
MEAN_GAP_S = 120.0


def build_population(scale: str) -> ClientPopulation:
    clients, _, _ = SCALES[scale]
    return ClientPopulation.generate(
        clients,
        seed=SEED,
        horizon=HORIZON_S,
        mean_session=MEAN_SESSION_S,
        mean_gap=MEAN_GAP_S,
    )


def round_arrivals(
    population: ClientPopulation, scale: str, round_idx: int
) -> list[tuple[float, float]]:
    """One round's (arrival offset, FedAvg weight) pairs, fully batched:
    availability mask at the round's start, vectorized selection, then one
    hibernation + one training-duration draw per participant."""
    _, participants, _ = SCALES[scale]
    selector = Selector(SelectorConfig(aggregation_goal=participants, over_provision=1.0))
    rng = make_rng(SEED, f"stress100k:{scale}:r{round_idx}")
    at = round_idx * 60.0
    picked = selector.select_population(population, rng, population.available_mask(at))
    offsets = population.hibernations(rng, picked) + population.training_durations(rng, picked)
    weights = population.weights(picked)
    return [(float(off), float(w)) for off, w in zip(offsets, weights)]


def run_cell(scale: str, shards: int, inline: bool = False) -> dict:
    """Warm round + measured round through the partitioned engine."""
    _, participants, n_nodes = SCALES[scale]
    nodes = [f"node{i:03d}" for i in range(n_nodes)]

    def factory() -> AggregationPlatform:
        cfg = PlatformConfig.lifl(ingress_stage="gateway-coalesced")
        return AggregationPlatform(cfg, node_names=list(nodes))

    population = build_population(scale)
    rounds = [round_arrivals(population, scale, r) for r in range(2)]
    engine = PartitionedRoundEngine(factory, shards=shards)
    run = engine.run(rounds, RESNET18_BYTES, inline=inline)
    measured = run.results[1]
    return {
        "scale": scale,
        "shards": shards,
        "clients": population.size,
        "participants": participants,
        "act_s": measured.act,
        "total_weight": measured.total_weight,
        "cpu_s": measured.cpu_total,
        "cross_node_transfers": measured.cross_node_transfers,
        "aggregators_reused": measured.aggregators_reused,
        "updates": measured.updates_aggregated,
    }


def _render(rows: list[dict]) -> str:
    lines = ["Stress 100k — partitioned cohorts over a struct-of-arrays population"]
    lines.append(
        render_table(
            ["scale", "shards", "clients", "ACT (s)", "CPU (s)", "x-node", "# reused", "updates"],
            [
                (
                    r["scale"],
                    r["shards"],
                    r["clients"],
                    f"{r['act_s']:.1f}",
                    f"{r['cpu_s']:.0f}",
                    r["cross_node_transfers"],
                    r["aggregators_reused"],
                    r["updates"],
                )
                for r in rows
            ],
        )
    )
    for scale in SCALES:
        acts = {r["act_s"] for r in rows if r["scale"] == scale}
        if len(acts) > 1:
            lines.append(
                f"\nWARNING: {scale} ACT varies across the shard axis ({sorted(acts)}) — "
                "the partitioned protocol should be exact"
            )
        elif acts:
            lines.append(f"\n{scale}: partition-invariant ACT {acts.pop():.3f}s")
    return "\n".join(lines)


@scenario(
    name="stress100k",
    title="100k-client, 10k-participant partitioned rounds (non-paper)",
    grid={"scale": tuple(SCALES), "shards": SHARD_AXIS},
    render=_render,
    workload="100k SoA clients, 10k-update LIFL rounds cut across cohort shards",
    metrics=("act_s", "cpu_s", "cross_node_transfers", "updates"),
    paper=False,
    tags=('perf', 'scale'),
)
def stress100k_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (scale, shards) cell; all draws key off the scale, never the
    shard count, so the shard axis must reproduce identical rows."""
    return [run_cell(run_spec.params["scale"], run_spec.params["shards"])]
