"""Policy tournament (non-paper): rank registered policies by SLO
attainment per simulated cost.

The policy registry (:mod:`repro.core.policies`) makes every decision
family — client selection, bin-packing placement, admission control, failure
recovery — a named, swappable strategy.  This scenario runs the natural
follow-up experiment: a **tournament** that sweeps contenders from each
family across a grid of workloads and ranks them on a single
efficiency score, ``attainment_per_cost`` = SLO attainment ÷ CPU-seconds
of simulated aggregation work (``cpu_work + cpu_reserved`` over every
finished round).  A policy that hits the SLO by burning twice the
compute ranks below one that hits it lean.

Every cell serves one workload with exactly one family swapped off its
default (the contender) and the other three pinned to their defaults, so
a contender's score is attributable to that one decision seam.  The
default-named contenders (``selection:availability-aware``,
``placement:bestfit``, ``admission:bounded-queue``,
``recovery:shrink-or-abort``) therefore all replay the *identical*
all-defaults cell — they are the shared reference row of each workload's
bracket.

Workloads (all availability-aware, all chaos-correlated so recovery
actually engages, all cost-tracked):

* ``poisson`` — one tenant, open-loop Poisson arrivals on the 8-node
  fleet; the steady-state bracket.
* ``diurnal`` — two tenants on sinusoidal-rate traces whose availability
  dips coincide with arrival peaks; the contended bracket.
* ``placement-chaos`` — a rack partition plus a NIC brown-out mid-replay
  with per-node capacity cut so rounds must spread; the adversarial
  bracket (placement and admission differences dominate here).

Determinism matches the other trace scenarios: one workload seed per
campaign shared across the contender axis, every random draw funneled
through the policies' injected RNG streams — sequential and ``--jobs N``
campaigns are byte-identical, which the tournament tests pin.
"""

from __future__ import annotations

from functools import partial

from repro.chaos.plan import FaultPlan, NicDegrade, PartitionWindow
from repro.cluster.node import NodeSpec
from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES
from repro.controlplane.reactive import ControllerConfig
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.policies import DEFAULTS
from repro.experiments.common import render_table
from repro.fl.selector import Selector, SelectorConfig
from repro.scenarios.registry import ScenarioRun, scenario
from repro.traces.models import (
    availability_trace,
    diurnal_trace,
    merge_traces,
    poisson_trace,
)
from repro.traces.replay import ChaosCorrelation, ReplayConfig, TraceReplayEngine
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

N_NODES = 8

#: ``family:policy`` strings — ≥2 contenders per family; the default-named
#: ones double as each bracket's all-defaults reference row
CONTENDERS = (
    "selection:availability-aware",
    "selection:random",
    "placement:bestfit",
    "placement:worstfit",
    "admission:bounded-queue",
    "admission:drop-head",
    "admission:defer-with-deadline",
    "recovery:shrink-or-abort",
    "recovery:abort-fast",
)

WORKLOADS = ("poisson", "diurnal", "placement-chaos")

TOURNAMENT_HORIZON_S = 240.0
TOURNAMENT_CLIENTS = 60
TOURNAMENT_SLO_S = 15.0
#: standalone deferral deadline; also the reactive controller's deadline in
#: the placement-chaos bracket (admission is explicit per cell, so a
#: positive controller deadline never flips the default policy choice)
TOURNAMENT_DEFER_S = 8.0

CHAOS_RACK0 = tuple(f"node{i}" for i in range(4))
CHAOS_PARTITION = (60.0, 150.0)
CHAOS_NODE_CAPACITY = 2


def _picks(contender: str) -> dict[str, str]:
    """Explicit policy name per family: defaults with one family swapped."""
    family, name = contender.split(":", 1)
    picks = dict(DEFAULTS)
    if family not in picks:
        raise ValueError(f"contender {contender!r} names unknown family")
    picks[family] = name
    return picks


def _fleet(placement_policy: str, capacity: int = 0) -> AggregationPlatform:
    nodes = [f"node{i}" for i in range(N_NODES)]
    spec = (
        NodeSpec(name="template", max_service_capacity=capacity) if capacity else None
    )
    return AggregationPlatform(
        PlatformConfig.lifl(placement_policy=placement_policy),
        node_names=nodes,
        node_spec=spec,
    )


def _client_pool(seed: int):
    """Shared mobile population + availability for every workload: the
    selection bracket needs eligibility to actually vary over time."""
    population = make_population(
        TOURNAMENT_CLIENTS, profile=MOBILE_PROFILE, seed=seed
    )
    avail = availability_trace(
        TOURNAMENT_CLIENTS,
        TOURNAMENT_HORIZON_S,
        seed=seed,
        mean_session=110.0,
        mean_gap=60.0,
        day_night_amplitude=0.8,
        period=120.0,
        prefix=MOBILE_PROFILE.name,
    )
    selector = Selector(SelectorConfig(aggregation_goal=8, over_provision=1.25))
    return population, avail, selector


def _trace(workload: str, seed: int):
    if workload == "poisson":
        return poisson_trace(30.0, TOURNAMENT_HORIZON_S, seed=seed)
    if workload == "diurnal":
        return merge_traces(
            *(
                diurnal_trace(
                    10.0,
                    TOURNAMENT_HORIZON_S,
                    amplitude=0.7,
                    period=120.0,
                    seed=seed,
                    tenant=t,
                )
                for t in range(2)
            )
        )
    if workload == "placement-chaos":
        return poisson_trace(10.0, TOURNAMENT_HORIZON_S, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def _chaos_fault_plan(seed: int) -> FaultPlan:
    start, end = CHAOS_PARTITION
    return FaultPlan(
        seed=seed,
        partitions=(PartitionWindow(nodes=CHAOS_RACK0, start=start, end=end),),
        nic_degradations=(
            NicDegrade(node="node4", start=start, end=end, factor=0.3),
        ),
    )


def _chaos_controller() -> ControllerConfig:
    """The placement-chaos bracket's watchdog + health-aware placement
    (pool/admission scaling off so the contender axis stays isolated)."""
    return ControllerConfig(
        pool_scaling=False,
        admission_control=False,
        placement_aware=True,
        min_rate_factor=0.5,
        placement_retries=3,
        retry_backoff_s=1.0,
        round_deadline_s=15.0,
        defer_deadline_s=TOURNAMENT_DEFER_S,
    )


def run_tournament_cell(workload: str, contender: str, seed: int) -> dict:
    picks = _picks(contender)
    population, avail, selector = _client_pool(seed)
    chaos = ChaosCorrelation(
        dip_threshold=0.65,
        max_fraction=0.8,
        wave_delay_s=0.5,
        quorum_fraction=0.5,
        recovery_policy=picks["recovery"],
    )
    with_controller = workload == "placement-chaos"
    replay = TraceReplayEngine(
        None,
        _trace(workload, seed),
        ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=2,
            queue_limit=3,
            slo_target_s=TOURNAMENT_SLO_S,
            selection_policy=picks["selection"],
            admission_policy=picks["admission"],
            defer_deadline_s=TOURNAMENT_DEFER_S,
            track_cost=True,
        ),
        availability=avail,
        weights=population.weights(),
        selector=selector,
        clients=population.clients,
        chaos=chaos,
        seed=seed,
        platform_factory=partial(
            _fleet,
            picks["placement"],
            CHAOS_NODE_CAPACITY if with_controller else 0,
        ),
        controller=_chaos_controller() if with_controller else None,
        fault_plan=_chaos_fault_plan(seed) if with_controller else None,
    )
    row = replay.run().row()
    row.update(
        workload=workload,
        contender=contender,
        family=contender.split(":", 1)[0],
        cell=f"{workload}/{contender}",
    )
    return row


def _render_tournament(rows: list[dict]) -> str:
    lines = [
        f"Policy tournament — {len(CONTENDERS)} contenders × "
        f"{len(WORKLOADS)} workloads over {TOURNAMENT_HORIZON_S:.0f}s each, "
        f"SLO {TOURNAMENT_SLO_S:.0f}s, ranked by SLO attainment per "
        "CPU-second of simulated aggregation work"
    ]
    winners = []
    for workload in WORKLOADS:
        bracket = [r for r in rows if r["workload"] == workload]
        if not bracket:
            continue  # absent under a single-workload --filter
        bracket.sort(key=lambda r: (-r["attainment_per_cost"], r["contender"]))
        lines.append(f"\n{workload}:")
        lines.append(
            render_table(
                ["#", "contender", "rounds", "rej", "abort", "p95 (s)", "attained", "cost (cpu·s)", "attain/cost"],
                [
                    (
                        rank,
                        r["contender"],
                        r["rounds"],
                        r["rejected"],
                        r["aborted"],
                        f"{r['latency_p95_s']:.2f}",
                        f"{r['slo_attainment']:.1%}",
                        f"{r['cost_cpu_s']:.1f}",
                        f"{r['attainment_per_cost']:.6f}",
                    )
                    for rank, r in enumerate(bracket, start=1)
                ],
            )
        )
        winners.append(f"{workload}: {bracket[0]['contender']}")
    if winners:
        lines.append("\nbracket winners: " + "; ".join(winners))
    return "\n".join(lines)


@scenario(
    name="policy-tournament",
    title="Policy tournament: attainment-per-cost brackets (non-paper)",
    grid={"workload": WORKLOADS, "contender": CONTENDERS},
    render=_render_tournament,
    workload=(
        f"{N_NODES} nodes, {len(WORKLOADS)} workloads × "
        f"{TOURNAMENT_HORIZON_S:.0f}s, {TOURNAMENT_CLIENTS}-client mobile "
        "population, one policy family swapped per cell"
    ),
    metrics=("slo_attainment", "cost_cpu_s", "attainment_per_cost"),
    paper=False,
    tags=('policies',),
)
def policy_tournament_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (workload, contender) cell; the workload seed is shared across
    the contender axis so every policy serves identical arrivals."""
    workload = run_spec.params["workload"]
    seed = int(
        make_rng(run_spec.campaign_seed, f"tournament:{workload}").integers(
            0, 2**31 - 1
        )
    )
    return [run_tournament_cell(workload, run_spec.params["contender"], seed)]
