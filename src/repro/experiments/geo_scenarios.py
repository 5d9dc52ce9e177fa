"""Geo-federation scenarios (non-paper): regions over asymmetric WAN.

Two scenario families drive :mod:`repro.geo` end to end, both with a
``regions`` grid axis (1 region = the unsharded replay, byte-identical —
golden-pinned):

* ``geo-follow-the-sun`` — tenants homed round-robin across up to three
  regions (``us``/``eu``/``ap``), each tenant driving a diurnal trace
  whose phase is shifted by its home region's longitude slice
  (``phase_shift_s = home_index × period / n_regions``), so the load
  peak marches around the planet while every completed non-root round's
  aggregated update crosses the asymmetric WAN back to the ``us`` root.
* ``geo-partition-failover`` — the same federation with a region-scoped
  :class:`~repro.chaos.plan.PartitionWindow` severing ``eu`` mid-replay:
  its tenants drain to the configured fallback region (entering through
  a deferral-aware admission policy), the heal returns them, and the
  report checks the boundary's weight accounting exactly — the shipped
  WAN weight must equal the completed weight served outside the root.

All randomness derives from the campaign seed; traces are shared across
the system axis so every system serves the same planet.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES
from repro.chaos.plan import FaultPlan, PartitionWindow
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments.common import render_table
from repro.geo import GeoReplayEngine, GeoReplayResult, RegionTopology, WanLink
from repro.scenarios.registry import ScenarioRun, scenario
from repro.traces.models import diurnal_trace, merge_traces
from repro.traces.replay import ReplayConfig

GEO_REGION_NAMES = ("us", "eu", "ap")
GEO_SYSTEMS = ("LIFL", "SL-H")
REGION_AXIS = (1, 2, 3)
GEO_TENANTS = 6
GEO_NODES_PER_REGION = 6
GEO_HORIZON_S = 480.0
GEO_PERIOD_S = 240.0
GEO_BASE_RATE = 4.0  # rounds/min/tenant
GEO_SLO_S = 10.0

_CONFIGS = {"LIFL": PlatformConfig.lifl, "SL-H": PlatformConfig.sl_h}

#: asymmetric WAN fabric: the two directions of each pair differ in both
#: propagation latency and pipe capacity (bytes/s)
_WAN_LINKS = (
    WanLink("eu", "us", latency_s=0.045, capacity_bps=1.0e8),
    WanLink("us", "eu", latency_s=0.040, capacity_bps=1.25e8),
    WanLink("ap", "us", latency_s=0.090, capacity_bps=6.0e7),
    WanLink("us", "ap", latency_s=0.085, capacity_bps=8.0e7),
    WanLink("ap", "eu", latency_s=0.120, capacity_bps=5.0e7),
    WanLink("eu", "ap", latency_s=0.110, capacity_bps=5.0e7),
)


def _topology(n_regions: int) -> RegionTopology:
    """The first ``n_regions`` of the planet, rooted at ``us``, each
    falling back to the next region around the ring."""
    regions = GEO_REGION_NAMES[:n_regions]
    links = tuple(
        lnk for lnk in _WAN_LINKS if lnk.src in regions and lnk.dst in regions
    )
    fallbacks = (
        {r: regions[(i + 1) % n_regions] for i, r in enumerate(regions)}
        if n_regions > 1
        else {}
    )
    return RegionTopology(regions, links=links, fallbacks=fallbacks, root=regions[0])


def _geo_platform(system: str, region: str) -> AggregationPlatform:
    nodes = [f"{region}-node{i}" for i in range(GEO_NODES_PER_REGION)]
    return AggregationPlatform(_CONFIGS[system](), node_names=nodes)


def _followsun_trace(topology: RegionTopology, seed: int):
    """Per-tenant diurnal traces, phase-shifted by the tenant's home
    region — the follow-the-sun workload."""
    n = topology.n_regions
    traces = []
    for tenant in range(GEO_TENANTS):
        home_index = topology.regions.index(topology.home_of(tenant))
        traces.append(
            diurnal_trace(
                GEO_BASE_RATE,
                GEO_HORIZON_S,
                amplitude=0.7,
                period=GEO_PERIOD_S,
                phase_shift_s=home_index * GEO_PERIOD_S / n,
                seed=seed,
                tenant=tenant,
            )
        )
    return merge_traces(*traces)


def _geo_config() -> ReplayConfig:
    return ReplayConfig(
        round_updates=4,
        nbytes=RESNET18_BYTES,
        max_inflight=3,
        queue_limit=8,
        slo_target_s=GEO_SLO_S,
    )


def _followsun_engine(
    system: str, n_regions: int, seed: int, fault_plan: FaultPlan | None = None
) -> GeoReplayEngine:
    """Build (without running) one federation cell — both geo scenarios
    share this."""
    topology = _topology(n_regions)
    config = _geo_config()
    if fault_plan is not None:
        # Deferral-aware re-admission: arrivals drained to the fallback
        # region park in its deferral room instead of bouncing.
        from dataclasses import replace

        config = replace(
            config, admission_policy="defer-with-deadline", defer_deadline_s=8.0
        )
    return GeoReplayEngine(
        topology,
        lambda region: _geo_platform(system, region),
        _followsun_trace(topology, seed),
        config,
        seed=seed,
        fault_plan=fault_plan,
    )


def _region_rounds(result: GeoReplayResult) -> str:
    return "|".join(
        f"{rep.region}:{len(rep.result.records)}" for rep in result.regions
    )


def _shared_seed(run_spec: ScenarioRun, stream: str) -> int:
    return int(
        make_rng(run_spec.campaign_seed, f"geo:{stream}").integers(0, 2**31 - 1)
    )


def _geo_columns(rows: list[dict]) -> str:
    return render_table(
        [
            "cell",
            "rounds",
            "p50 (s)",
            "p95 (s)",
            "attained",
            "wan flows",
            "wan weight",
            "failover",
            "per-region rounds",
        ],
        [
            (
                r["cell"],
                r["rounds"],
                f"{r['latency_p50_s']:.2f}",
                f"{r['latency_p95_s']:.2f}",
                f"{r['slo_attainment']:.1%}",
                r["wan_flows"],
                f"{r['wan_weight']:.1f}",
                r["failover_rounds"],
                r["region_rounds"],
            )
            for r in rows
        ],
    )


# ------------------------------------------------------------ follow the sun
def run_followsun_cell(system: str, n_regions: int, seed: int) -> dict:
    result = _followsun_engine(system, n_regions, seed).run()
    row = result.row()
    row.update(
        system=system,
        region_rounds=_region_rounds(result),
        cell=f"{system}/r{n_regions}",
    )
    return row


def _render_followsun(rows: list[dict]) -> str:
    lines = [
        f"Follow-the-sun federation — {GEO_TENANTS} tenants homed round-robin "
        f"across up to {len(GEO_REGION_NAMES)} regions, diurnal load "
        f"phase-shifted per region over {GEO_HORIZON_S:.0f}s, root reduction "
        f"to '{GEO_REGION_NAMES[0]}' over asymmetric WAN, SLO {GEO_SLO_S:.0f}s"
    ]
    lines.append(_geo_columns(rows))
    return "\n".join(lines)


@scenario(
    name="geo-follow-the-sun",
    title="Geo federation: follow-the-sun diurnal load across regions (non-paper)",
    grid={"system": GEO_SYSTEMS, "regions": REGION_AXIS},
    render=_render_followsun,
    workload=(
        f"{GEO_TENANTS} tenants, up to {len(GEO_REGION_NAMES)} regions x "
        f"{GEO_NODES_PER_REGION} nodes, phase-shifted diurnal traces over "
        f"{GEO_HORIZON_S:.0f}s, WAN root reduction"
    ),
    metrics=("latency_p50_s", "latency_p95_s", "slo_attainment", "wan_flows", "wan_weight"),
    paper=False,
    tags=("geo", "traces", "slo"),
)
def geo_followsun_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, regions) federation cell; workload shared across the
    system axis."""
    return [
        run_followsun_cell(
            run_spec.params["system"],
            run_spec.params["regions"],
            _shared_seed(run_spec, "followsun"),
        )
    ]


# -------------------------------------------------------- partition failover
FAILOVER_REGION_AXIS = (2, 3)
PARTITION_START_S = GEO_HORIZON_S / 3.0
PARTITION_END_S = 2.0 * GEO_HORIZON_S / 3.0
#: the region the partition severs (its tenants drain to its fallback)
PARTITION_REGION = "eu"


def _failover_plan() -> FaultPlan:
    return FaultPlan(
        partitions=(
            PartitionWindow(
                nodes=(PARTITION_REGION,),
                start=PARTITION_START_S,
                end=PARTITION_END_S,
            ),
        )
    )


def run_failover_cell(system: str, n_regions: int, seed: int) -> dict:
    engine = _followsun_engine(system, n_regions, seed, fault_plan=_failover_plan())
    result = engine.run()
    # Exact weight accounting through the boundary: the WAN shipped
    # exactly the completed weight of every round served outside the
    # root — no weight is minted or lost at the region boundary.
    shipped = sum(s.weight for s in result.shipments)
    root = engine.topology.root
    completed_outside_root = sum(
        sum(w for _, w in rec.participants)
        for rep in result.regions
        if rep.region != root
        for rec in rep.result.records
        if not (rec.aborted or rec.rejected or rec.shed)
    )
    fallback = engine.topology.fallback(PARTITION_REGION)
    drained = {
        t for t, home in result.route.homes.items() if home == PARTITION_REGION
    }
    fallback_served = sum(
        1
        for (tenant, _), region in result.route.served_in.items()
        if tenant in drained and region == fallback
    )
    row = result.row()
    row.update(
        system=system,
        region_rounds=_region_rounds(result),
        fallback=fallback,
        fallback_served=fallback_served,
        weight_conserved=abs(shipped - completed_outside_root) < 1e-9,
        cell=f"{system}/r{n_regions}",
    )
    return row


def _render_failover(rows: list[dict]) -> str:
    lines = [
        f"Partition failover — region '{PARTITION_REGION}' severed during "
        f"[{PARTITION_START_S:.0f}s, {PARTITION_END_S:.0f}s): its tenants "
        "drain to the fallback region (deferral-aware re-admission) and "
        "return at the heal; WAN weight accounting checked exactly"
    ]
    lines.append(_geo_columns(rows))
    lines.append(
        "\nfailover: "
        + ", ".join(
            f"{r['cell']}: {r['failover_rounds']} rounds drained to "
            f"{r['fallback']} ({r['fallback_served']} served there), "
            f"weight conserved={r['weight_conserved']}"
            for r in rows
        )
    )
    return "\n".join(lines)


@scenario(
    name="geo-partition-failover",
    title="Geo federation: region partition with tenant failover (non-paper)",
    grid={"system": GEO_SYSTEMS, "regions": FAILOVER_REGION_AXIS},
    render=_render_failover,
    workload=(
        f"{GEO_TENANTS} tenants over {GEO_HORIZON_S:.0f}s, region "
        f"'{PARTITION_REGION}' partitioned for the middle third, "
        "fallback drain + heal, exact WAN weight accounting"
    ),
    metrics=(
        "slo_attainment",
        "failover_rounds",
        "fallback_served",
        "wan_weight",
        "shed",
    ),
    paper=False,
    tags=("geo", "traces", "chaos"),
)
def geo_failover_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (system, regions) federation cell under a region partition."""
    return [
        run_failover_cell(
            run_spec.params["system"],
            run_spec.params["regions"],
            _shared_seed(run_spec, "failover"),
        )
    ]
