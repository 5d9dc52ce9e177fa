"""Failure-rate sweep under fault injection (non-paper scenario).

The paper's §3 resilience claim — keep-alive failure detection plus client
over-provisioning, stateless aggregator restarts — is exercised as a grid:
client dropout waves of increasing severity, with and without concurrent
aggregator crashes, on a LIFL platform (its lifecycle stage restarts
crashed aggregators from the warm pool, else cold; the title's "resilient
lifecycle" names that).  Expected shape: every round at a dropout rate
below the over-provisioning margin (here quorum 60 %) completes,
aggregating at least the quorum; rounds beyond the margin abort with a
*typed* ``RoundAbort`` instead of hanging.  Aggregator crashes never
change the outcome — restarted instances re-read their inputs from
shared memory and re-aggregate, so the final weight always equals the
updates aggregated.
"""

from __future__ import annotations

import math

from repro.chaos import AggregatorCrash, DropoutWave, FaultInjector, FaultPlan
from repro.common.errors import RoundAbort
from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario
from repro.workloads.arrival import concurrent_arrivals

N_NODES = 20
BATCH = 120
DROPOUT_RATES = (0.0, 0.15, 0.3, 0.5)
CRASH_COUNTS = (0, 2)
QUORUM_FRACTION = 0.6
ARRIVAL_JITTER_S = 3.0


def run_cell(dropout_rate: float, crashes: int, seed: int) -> dict:
    """One chaos round: a dropout wave at t=2 s, crashes at t=4 s."""
    cfg = PlatformConfig.lifl()
    nodes = [f"node{i:02d}" for i in range(N_NODES)]
    platform = AggregationPlatform(cfg, node_names=nodes)
    arrivals = [
        (t, 1.0)
        for t in concurrent_arrivals(
            BATCH, jitter=ARRIVAL_JITTER_S, rng=make_rng(seed, "chaos-arrivals")
        )
    ]
    plan = FaultPlan(
        seed=seed,
        quorum_fraction=QUORUM_FRACTION,
        heartbeat_timeout=3.0,
        sweep_interval=1.0,
        dropouts=(DropoutWave(at=2.0, fraction=dropout_rate),) if dropout_rate else (),
        crashes=(AggregatorCrash(at=4.0, count=crashes),) if crashes else (),
    )
    injector = FaultInjector(plan)
    quorum = math.ceil(QUORUM_FRACTION * BATCH)
    row = {
        "dropout_rate": dropout_rate,
        "crashes": crashes,
        "quorum": quorum,
        "batch": BATCH,
    }
    try:
        result = platform.run_round(
            arrivals,
            RESNET152_BYTES,
            include_eval=False,
            record_timeline=False,
            injector=injector,
        )
    except RoundAbort:
        # ``survivors`` uses one definition on both outcome branches:
        # clients whose updates were not killed (BATCH - dropped).
        row.update(
            completed=False,
            updates_aggregated=0,
            survivors=BATCH - injector.report.clients_dropped,
            act_s=0.0,
            restarts=injector.report.crashes_injected,
            clients_dropped=injector.report.clients_dropped,
        )
        return row
    row.update(
        completed=True,
        updates_aggregated=result.updates_aggregated,
        survivors=BATCH - result.clients_dropped,
        act_s=result.act,
        restarts=result.aggregator_restarts,
        clients_dropped=result.clients_dropped,
    )
    # The §3 invariant the scenario exists to demonstrate: the emitted
    # global-model weight covers exactly the aggregated updates (stateless
    # restarts never double-count), and the quorum was met.
    assert result.total_weight == result.updates_aggregated
    assert result.updates_aggregated >= quorum
    return row


def _render(rows: list[dict]) -> str:
    lines = [
        f"Chaos sweep — {N_NODES} nodes, {BATCH} clients, quorum "
        f"{QUORUM_FRACTION:.0%} (LIFL, warm-then-cold restarts)"
    ]
    lines.append(
        render_table(
            ["dropout", "crashes", "outcome", "aggregated", "dropped", "restarts", "ACT (s)"],
            [
                (
                    f"{r['dropout_rate']:.0%}",
                    r["crashes"],
                    "completed" if r["completed"] else "ABORTED",
                    f"{r['updates_aggregated']}/{r['batch']}",
                    r["clients_dropped"],
                    r["restarts"],
                    f"{r['act_s']:.1f}" if r["completed"] else "-",
                )
                for r in rows
            ],
        )
    )
    completed = [r for r in rows if r["completed"]]
    aborted = [r for r in rows if not r["completed"]]
    lines.append(
        f"\n{len(completed)} rounds completed at/above quorum "
        f"({min(r['updates_aggregated'] for r in completed)} worst case), "
        f"{len(aborted)} aborted with typed RoundAbort (dropout beyond the "
        f"over-provisioning margin)."
        if completed
        else "\nno round completed"
    )
    return "\n".join(lines)


@scenario(
    name="chaos-sweep",
    title="failure-rate grid under fault injection (non-paper)",
    grid={"dropout_rate": DROPOUT_RATES, "crashes": CRASH_COUNTS},
    render=_render,
    workload=f"{N_NODES} nodes, {BATCH} concurrent ResNet-152 updates, quorum {QUORUM_FRACTION:.0%}",
    metrics=("completed", "updates_aggregated", "act_s", "restarts"),
    paper=False,
    tags=('chaos',),
)
def chaos_sweep_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (dropout_rate, crashes) cell of the failure grid."""
    return [
        run_cell(
            run_spec.params["dropout_rate"],
            run_spec.params["crashes"],
            seed=run_spec.seed,
        )
    ]
