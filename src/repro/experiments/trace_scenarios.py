"""Trace-driven serving scenarios (non-paper): SLO behaviour under load.

Every paper figure fires one synchronous round at a time; these scenarios
instead *serve* rounds from arrival traces through
:class:`~repro.traces.replay.TraceReplayEngine` and score the result
against an SLO — latency percentiles (p50/p95/p99), queue-wait versus
service-time breakdown, and attainment:

* ``trace-poisson-slo`` — open-loop Poisson round arrivals at two rates
  against LIFL and SL-H on one shared 8-node fleet.  Expected shape: at
  low rate both systems attain; at 40 rounds/min SL-H's lazy aggregation
  and cold-start service times saturate the bounded admission queue and
  attainment collapses while LIFL keeps serving.
* ``trace-diurnal-multitenant`` — four tenants, each driving a diurnal
  (sinusoidal-rate) trace, with availability-aware client sampling: a
  FedScale-style mobile population whose day-night participation swings
  thin the rounds exactly when arrival rate peaks.  ≥200 overlapping
  rounds per cell; the serving-capacity question multi-tenant FL has to
  answer.
* ``trace-burst-chaos`` — Markov-modulated bursts with dropout chaos
  *correlated* to availability dips (clients that vanish from the
  availability trace also vanish mid-round), exercising the multi-round
  recovery loop: goal shrinking, quorum aborts, warm-pool-funded serving
  straight through the burst.

All randomness derives from the campaign seed — traces, participants, and
chaos victims are shared across the system axis so every system serves
the *same* workload, and sequential and ``--jobs N`` campaigns produce
byte-identical rows.

Every scenario also carries a ``shards`` grid axis: ``shards=N`` replays
the same trace through :mod:`repro.traces.shard`'s multi-core
:class:`~repro.traces.shard.ShardedReplayEngine` — tenants partitioned
across forked worker processes, each shard a full serving cell, SLO
digests merged exactly.  Sharding is tenant-affine, so a single-tenant
trace (poisson, burst) collapses ``shards=2`` to one effective shard and
reproduces the ``shards=1`` metrics byte-for-byte; the 4-tenant diurnal
scenario is the one where ``shards=4`` actually fans out.
"""

from __future__ import annotations

from functools import partial

from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import render_table
from repro.fl.selector import Selector, SelectorConfig
from repro.scenarios.registry import ScenarioRun, scenario
from repro.traces.models import (
    availability_trace,
    diurnal_trace,
    merge_traces,
    mmpp_trace,
    poisson_trace,
)
from repro.traces.replay import ChaosCorrelation, ReplayConfig, TraceReplayEngine
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

N_NODES = 8
SYSTEMS = ("LIFL", "SL-H")
#: the poisson cell additionally replays against baseline SL — its ramped
#: admission is round-start-relative now (RoundAdmission), so mid-replay
#: rounds ramp from their own admission instant instead of stacking
#: sim-clock-sized delays
POISSON_SYSTEMS = ("LIFL", "SL-H", "SL")

_CONFIGS = {
    "LIFL": PlatformConfig.lifl,
    "SL-H": PlatformConfig.sl_h,
    "SL": PlatformConfig.serverless,
}


def _platform(system: str) -> AggregationPlatform:
    nodes = [f"node{i}" for i in range(N_NODES)]
    return AggregationPlatform(_CONFIGS[system](), node_names=nodes)


def _slo_columns(rows: list[dict]) -> str:
    return render_table(
        ["cell", "rounds", "rej", "p50 (s)", "p95 (s)", "p99 (s)", "wait p95", "svc p95", "attained"],
        [
            (
                r["cell"],
                r["rounds"],
                r["rejected"],
                f"{r['latency_p50_s']:.2f}",
                f"{r['latency_p95_s']:.2f}",
                f"{r['latency_p99_s']:.2f}",
                f"{r['queue_wait_p95_s']:.2f}",
                f"{r['service_p95_s']:.2f}",
                f"{r['slo_attainment']:.1%}",
            )
            for r in rows
        ],
    )


# ------------------------------------------------------------ poisson / SLO
POISSON_RATES = (12, 40)  # rounds/min
POISSON_HORIZON_S = 600.0
POISSON_SLO_S = 12.0
SHARD_AXIS = (1, 2)


def run_poisson_cell(system: str, rate_per_min: int, seed: int, shards: int = 1) -> dict:
    trace = poisson_trace(rate_per_min, POISSON_HORIZON_S, seed=seed)
    replay = TraceReplayEngine(
        None,
        trace,
        ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=2,
            queue_limit=6,
            slo_target_s=POISSON_SLO_S,
        ),
        seed=seed,
        platform_factory=partial(_platform, system),
    )
    row = replay.run(shards=shards).row()
    row.update(
        system=system,
        rate_per_min=rate_per_min,
        shards=shards,
        cell=f"{system}@{rate_per_min}/min/s{shards}",
    )
    return row


def _render_poisson(rows: list[dict]) -> str:
    lines = [
        f"Poisson serving — {POISSON_HORIZON_S:.0f}s of open-loop round arrivals, "
        f"8-update ResNet-18 rounds, SLO {POISSON_SLO_S:.0f}s end-to-end"
    ]
    lines.append(_slo_columns(rows))
    by = {(r["system"], r["rate_per_min"]): r for r in rows if r.get("shards", 1) == 1}
    gaps = []
    for rate in POISSON_RATES:
        lifl, slh = by.get(("LIFL", rate)), by.get(("SL-H", rate))
        if lifl and slh:
            gaps.append(
                f"{rate}/min: LIFL {lifl['slo_attainment']:.1%} vs SL-H {slh['slo_attainment']:.1%}"
            )
    if gaps:  # absent under a single-system --filter
        lines.append("\nSLO attainment by rate: " + "; ".join(gaps))
    return "\n".join(lines)


@scenario(
    name="trace-poisson-slo",
    title="Poisson arrival-driven serving with SLO percentiles (non-paper)",
    grid={"system": POISSON_SYSTEMS, "rate_per_min": POISSON_RATES, "shards": SHARD_AXIS},
    render=_render_poisson,
    workload=f"{N_NODES} nodes, {POISSON_HORIZON_S:.0f}s Poisson traces, 8-update rounds",
    metrics=("latency_p50_s", "latency_p95_s", "latency_p99_s", "slo_attainment"),
    paper=False,
    tags=('traces', 'slo'),
)
def trace_poisson_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, rate, shards) serving cell; trace shared across systems."""
    seed = _shared_seed(run_spec, "poisson")
    return [
        run_poisson_cell(
            run_spec.params["system"],
            run_spec.params["rate_per_min"],
            seed,
            shards=run_spec.params["shards"],
        )
    ]


def _shared_seed(run_spec: ScenarioRun, stream: str) -> int:
    """One workload seed per campaign, shared across the system axis so
    every system serves the identical trace."""
    return int(
        make_rng(run_spec.campaign_seed, f"trace:{stream}").integers(0, 2**31 - 1)
    )


# --------------------------------------------------- diurnal / multi-tenant
DIURNAL_TENANTS = 4
DIURNAL_HORIZON_S = 900.0
DIURNAL_PERIOD_S = 300.0
DIURNAL_BASE_RATE = 4.0  # rounds/min/tenant
DIURNAL_SLO_S = 8.0
DIURNAL_CLIENTS = 120


DIURNAL_SHARD_AXIS = (1, 2, 4)


def _diurnal_replay(system: str, seed: int) -> TraceReplayEngine:
    """Build (without running) the diurnal cell's replay engine — the
    scenario and the golden and telemetry tests share this."""
    traces = [
        diurnal_trace(
            DIURNAL_BASE_RATE,
            DIURNAL_HORIZON_S,
            amplitude=0.7,
            period=DIURNAL_PERIOD_S,
            seed=seed,
            tenant=t,
        )
        for t in range(DIURNAL_TENANTS)
    ]
    trace = merge_traces(*traces)
    population = make_population(
        DIURNAL_CLIENTS, profile=MOBILE_PROFILE, seed=seed
    )
    avail = availability_trace(
        DIURNAL_CLIENTS,
        DIURNAL_HORIZON_S,
        seed=seed,
        mean_session=150.0,
        mean_gap=70.0,
        day_night_amplitude=0.6,
        period=DIURNAL_PERIOD_S,
        prefix=MOBILE_PROFILE.name,
    )
    selector = Selector(SelectorConfig(aggregation_goal=8, over_provision=1.2))
    return TraceReplayEngine(
        None,
        trace,
        ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=3,
            queue_limit=8,
            slo_target_s=DIURNAL_SLO_S,
        ),
        availability=avail,
        weights=population.weights(),
        selector=selector,
        clients=population.clients,
        seed=seed,
        platform_factory=partial(_platform, system),
    )


def run_diurnal_cell(system: str, seed: int, shards: int = 1) -> dict:
    result = _diurnal_replay(system, seed).run(shards=shards)
    row = result.row()
    row.update(system=system, shards=shards, cell=f"{system}/s{shards}")
    return row


def _render_diurnal(rows: list[dict]) -> str:
    lines = [
        f"Diurnal multi-tenant serving — {DIURNAL_TENANTS} tenants × "
        f"{DIURNAL_HORIZON_S:.0f}s sinusoidal-rate traces, availability-aware "
        f"sampling over {DIURNAL_CLIENTS} mobile clients, SLO {DIURNAL_SLO_S:.0f}s"
    ]
    lines.append(_slo_columns(rows))
    lines.append(
        "\npeak overlapping rounds: "
        + ", ".join(f"{r['cell']}={r['peak_inflight']}" for r in rows)
    )
    return "\n".join(lines)


@scenario(
    name="trace-diurnal-multitenant",
    title="4-tenant diurnal trace serving, availability-aware (non-paper)",
    grid={"system": SYSTEMS, "shards": DIURNAL_SHARD_AXIS},
    render=_render_diurnal,
    workload=(
        f"{N_NODES} nodes, {DIURNAL_TENANTS} tenants, diurnal traces over "
        f"{DIURNAL_HORIZON_S:.0f}s, {DIURNAL_CLIENTS}-client mobile population"
    ),
    metrics=("latency_p50_s", "latency_p95_s", "latency_p99_s", "slo_attainment", "peak_inflight"),
    paper=False,
    tags=('traces', 'slo'),
)
def trace_diurnal_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One system serving the shared 4-tenant diurnal workload, optionally
    sharded tenant-affine across worker processes."""
    return [
        run_diurnal_cell(
            run_spec.params["system"],
            _shared_seed(run_spec, "diurnal"),
            shards=run_spec.params["shards"],
        )
    ]


# --------------------------------------------------------- bursts + chaos
BURST_HORIZON_S = 600.0
BURST_SLO_S = 20.0
BURST_CLIENTS = 80


def run_burst_cell(system: str, chaos: str, seed: int, shards: int = 1) -> dict:
    trace = mmpp_trace(
        calm_rate_per_min=3.0,
        burst_rate_per_min=30.0,
        horizon=BURST_HORIZON_S,
        mean_calm=90.0,
        mean_burst=25.0,
        seed=seed,
    )
    avail = availability_trace(
        BURST_CLIENTS,
        BURST_HORIZON_S,
        seed=seed,
        mean_session=90.0,
        mean_gap=80.0,
        day_night_amplitude=0.8,
        period=200.0,
    )
    correlation = (
        ChaosCorrelation(dip_threshold=0.55, max_fraction=0.9, wave_delay_s=0.25, quorum_fraction=0.5)
        if chaos == "on"
        else None
    )
    replay = TraceReplayEngine(
        None,
        trace,
        ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=3,
            queue_limit=8,
            slo_target_s=BURST_SLO_S,
            arrival_spread_s=4.0,
        ),
        availability=avail,
        chaos=correlation,
        seed=seed,
        platform_factory=partial(_platform, system),
    )
    result = replay.run(shards=shards)
    row = result.row()
    row.update(
        system=system, chaos=chaos, shards=shards, cell=f"{system}/chaos={chaos}/s{shards}"
    )
    return row


def _render_burst(rows: list[dict]) -> str:
    lines = [
        f"Bursty serving under correlated chaos — MMPP round arrivals over "
        f"{BURST_HORIZON_S:.0f}s, dropout waves during availability dips, "
        f"SLO {BURST_SLO_S:.0f}s"
    ]
    lines.append(_slo_columns(rows))
    chaos_rows = [r for r in rows if r["chaos"] == "on" and r.get("shards", 1) == 1]
    if chaos_rows:
        lines.append(
            "\nchaos: "
            + ", ".join(
                f"{r['system']}: {r['chaos_waves']} waves, "
                f"{r['clients_dropped']} clients dropped, {r['aborted']} aborts"
                for r in chaos_rows
            )
        )
    return "\n".join(lines)


@scenario(
    name="trace-burst-chaos",
    title="MMPP burst serving with availability-correlated chaos (non-paper)",
    grid={"system": SYSTEMS, "chaos": ("off", "on"), "shards": SHARD_AXIS},
    render=_render_burst,
    workload=f"{N_NODES} nodes, MMPP bursts over {BURST_HORIZON_S:.0f}s, {BURST_CLIENTS}-client churny population",
    metrics=("latency_p95_s", "slo_attainment", "chaos_waves", "clients_dropped", "aborted"),
    paper=False,
    tags=('traces', 'slo', 'chaos'),
)
def trace_burst_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, chaos on/off, shards) cell on the shared burst workload."""
    seed = _shared_seed(run_spec, "burst")
    return [
        run_burst_cell(
            run_spec.params["system"],
            run_spec.params["chaos"],
            seed,
            shards=run_spec.params["shards"],
        )
    ]
