"""The geo-federated replay: one serving cell per region, coupled by WAN.

:class:`GeoReplayEngine` is the planet-scale sibling of
:class:`~repro.traces.shard.ShardedReplayEngine`.  Where the sharded
engine splits *tenants* across identical cells, the geo engine splits
them across **regions** — named cells from a
:class:`~repro.geo.topology.RegionTopology`, each built by a
``platform_factory(region)`` — and then couples the cells:

* **routing with failover** — every arrival is routed *before* execution:
  a tenant's round goes to its home region unless a region-scoped
  :class:`~repro.chaos.plan.PartitionWindow` covers the arrival instant,
  in which case it drains to the home's configured fallback region; the
  heal returns routing to the home.  Routing is a pure function of
  ``(trace, topology, fault plan)``, so forked and inline execution are
  byte-identical.  Failover arrivals enter the fallback cell through its
  ordinary admission policy — with a deferral-aware policy configured,
  drained rounds park in the deferral room rather than bouncing
  (the re-admission discipline the partition scenario exercises).
* **in-region leaf aggregation, cross-region root reduction** — each
  region cell aggregates its rounds exactly as the unsharded engine
  would (leaf/top hierarchy inside the cell); every *completed* round
  served outside the topology's root region then ships one aggregated
  update (round weight riding along) over the region's directed WAN
  :class:`~repro.cluster.network.ProcessorSharingLink` to the root.
  Simultaneous shipments contend on the shared pipe; partition windows
  freeze the affected links (flows stall, never drop); the round's
  end-to-end latency grows by propagation + transfer time.  Weight is
  conserved exactly through the boundary: the per-pair shipped weight
  equals the completed weight of the rounds that crossed it.
* **exact merging** — the cells fold through the sharded engine's
  :meth:`ReplayResult.merge <repro.traces.replay.ReplayResult.merge>`
  (per-cell peaks sum, controller reports merge), the WAN shift applies
  to the merged records, the SLO accounting is rebuilt from them
  (digest bucket addition is exact), and telemetry streams come home
  region-stamped through :func:`~repro.telemetry.bus.merge_streams`.

The geo engine owns no process pool: the region cells fan out through
:func:`~repro.common.fanout.fan_out` and each replays through
:func:`~repro.traces.shard.run_cell`, exactly like the sharded engine's
shards — so geo is "shard by region, then a WAN phase".

With one region there is nothing to couple: no WAN flows, no failover,
and the single cell's :class:`~repro.traces.replay.ReplayResult` is
returned as ``merged`` unchanged — byte-identical to
``TraceReplayEngine.run()`` on the same inputs, which the differential
suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigError
from repro.common.fanout import fan_out
from repro.cluster.network import ProcessorSharingLink
from repro.geo.topology import RegionTopology, validate_geo_faults
from repro.perf.counters import CounterCarrier, maybe_register
from repro.sim.engine import Environment, Process
from repro.telemetry.bus import (
    TelemetryBus,
    TelemetryRecord,
    ambient_bus,
    merge_streams,
)
from repro.traces.models import Trace, TraceEvent
from repro.traces.replay import ReplayConfig, ReplayResult
from repro.traces.shard import ShardReport, run_cell
from repro.traces.slo import SloTracker

if TYPE_CHECKING:  # import-light, mirroring shard.py
    from repro.chaos.plan import FaultPlan
    from repro.controlplane.reactive import ControllerConfig
    from repro.core.platform import AggregationPlatform
    from repro.fl.client import FLClient
    from repro.fl.population import ClientPopulation
    from repro.fl.selector import Selector
    from repro.traces.models import AvailabilityTrace
    from repro.traces.replay import ChaosCorrelation

__all__ = [
    "FailoverEpisode",
    "GeoReplayEngine",
    "GeoReplayResult",
    "GeoRoute",
    "RegionReport",
    "WanShipment",
    "placement_nodes",
    "route_trace",
]


# ------------------------------------------------------------------ routing
@dataclass(frozen=True)
class FailoverEpisode:
    """One region draining to its fallback for one partition window."""

    region: str
    fallback: str
    start: float
    end: float
    #: tenants homed in the region (the ones whose arrivals drain)
    tenants: tuple[int, ...]


@dataclass(frozen=True)
class GeoRoute:
    """The pre-computed routing of one trace over one topology."""

    #: region name -> that region's events (original tenant/round ids)
    assignments: dict[str, tuple[TraceEvent, ...]]
    #: (tenant, round_id) -> region the round was served in
    served_in: dict[tuple[int, int], str]
    #: tenant -> home region
    homes: dict[int, str]
    #: one episode per (region, partition window), in window order
    episodes: tuple[FailoverEpisode, ...]

    @property
    def failover_rounds(self) -> int:
        """Rounds served away from their tenant's home region."""
        return sum(
            1
            for (tenant, _), region in self.served_in.items()
            if region != self.homes[tenant]
        )


def _partitioned_at(plan: "FaultPlan | None", region: str, at: float) -> bool:
    if plan is None:
        return False
    for win in plan.partitions:
        if region in win.nodes and win.start <= at < win.end:
            return True
    return False


def route_trace(
    trace: Trace,
    topology: RegionTopology,
    homes: dict[int, str] | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> GeoRoute:
    """Route every arrival to a region — home, or fallback while the home
    is inside a partition window.

    Pure data in, pure data out: no RNG, no simulation state, so the
    routing (and everything seeded downstream of it) is independent of
    execution mode.
    """
    if fault_plan is not None:
        validate_geo_faults(fault_plan, topology)
    home_map = {
        tenant: topology.home_of(tenant, homes)
        for tenant in sorted({ev.tenant for ev in trace.events})
    }
    assignments: dict[str, list[TraceEvent]] = {r: [] for r in topology.regions}
    served_in: dict[tuple[int, int], str] = {}
    for ev in trace.events:
        region = home_map[ev.tenant]
        if _partitioned_at(fault_plan, region, ev.at):
            region = topology.fallback(region)
        assignments[region].append(ev)
        served_in[(ev.tenant, ev.round_id)] = region
    episodes: list[FailoverEpisode] = []
    if fault_plan is not None:
        for win in sorted(fault_plan.partitions, key=lambda w: (w.start, w.nodes)):
            for region in win.nodes:
                episodes.append(
                    FailoverEpisode(
                        region=region,
                        fallback=topology.fallback(region),
                        start=win.start,
                        end=win.end,
                        tenants=tuple(
                            t for t, h in sorted(home_map.items()) if h == region
                        ),
                    )
                )
    return GeoRoute(
        assignments={r: tuple(evs) for r, evs in assignments.items()},
        served_in=served_in,
        homes=home_map,
        episodes=tuple(episodes),
    )


def region_subtrace(trace: Trace, region: str, events: tuple[TraceEvent, ...]) -> Trace:
    """The sub-trace one region replays.

    Unlike :func:`repro.traces.shard.split_trace`, failover routing can
    split one tenant's rounds *across* regions, so a region's view of a
    tenant legitimately has round-id gaps — events keep their original
    ``(tenant, round_id)`` identity (the seeded-draw key) and only time
    order is validated.
    """
    prev = 0.0
    for ev in events:
        ev.check()
        if ev.at < prev:
            raise ConfigError("region events must be time-sorted")
        prev = ev.at
    return Trace(
        events=list(events),
        horizon=trace.horizon,
        source=f"{trace.source or '?'} [region {region}]",
    )


def placement_nodes(
    region_nodes: dict[str, tuple[str, ...]],
    home: str,
    fallback: str,
    partitioned: set[str] | frozenset[str] = frozenset(),
) -> tuple[str, ...]:
    """The node set a placement policy may use for a tenant homed in
    ``home``: the home region's nodes, or the fallback's while the home
    is partitioned — never a partitioned region's nodes.

    This is the restriction the per-region cells enforce structurally
    (each cell only owns its own nodes); the policy-conformance suite
    uses it to exercise registered placement policies against
    region-restricted node sets directly.
    """
    if home in region_nodes and home not in partitioned:
        return tuple(region_nodes[home])
    if not fallback:
        raise ConfigError(f"region {home!r} is unavailable and has no fallback")
    if fallback in partitioned:
        raise ConfigError(
            f"fallback region {fallback!r} for {home!r} is partitioned too"
        )
    return tuple(region_nodes[fallback])


# ------------------------------------------------------------------ results
@dataclass
class RegionReport(ShardReport):
    """One region cell's complete output: a
    :class:`~repro.traces.shard.ShardReport` whose ``shard`` is the
    region's index in the topology, plus the region's name."""

    region: str = ""


@dataclass(frozen=True)
class WanShipment:
    """One completed round's aggregated update crossing the WAN."""

    src: str
    dst: str
    tenant: int
    round_id: int
    at: float  #: local completion instant (shipment departure)
    nbytes: float
    weight: float
    latency_s: float
    transfer_s: float = 0.0

    @property
    def wan_extra_s(self) -> float:
        return self.latency_s + self.transfer_s


@dataclass
class GeoReplayResult:
    """A federated replay's merged view plus the per-region breakdown."""

    merged: ReplayResult
    regions: list[RegionReport]
    route: GeoRoute
    shipments: list[WanShipment]
    forked: bool
    workers: int = 1

    def row(self) -> dict:
        out = self.merged.row()
        out.update(
            regions=len(self.regions),
            failovers=len(self.route.episodes),
            failover_rounds=self.route.failover_rounds,
            wan_flows=len(self.shipments),
            wan_bytes=round(sum(s.nbytes for s in self.shipments), 6),
            wan_weight=round(sum(s.weight for s in self.shipments), 6),
        )
        return out

    def wan_weight_by_pair(self) -> dict[tuple[str, str], float]:
        """Exact weight shipped per directed region pair — the boundary
        side of the conservation invariant the tests pin."""
        out: dict[tuple[str, str], float] = {}
        for s in self.shipments:
            out[(s.src, s.dst)] = out.get((s.src, s.dst), 0.0) + s.weight
        return out

    def region_report(self, region: str) -> RegionReport:
        for rep in self.regions:
            if rep.region == region:
                return rep
        raise ConfigError(f"no region {region!r} in this result")


# ------------------------------------------------------------------- engine
class GeoReplayEngine:
    """Replay one trace across a region topology and merge exactly.

    Mirrors :class:`~repro.traces.shard.ShardedReplayEngine`'s knobs;
    ``platform_factory`` takes the *region name* so cells can brand their
    node fleets, and ``fault_plan`` here is **region-scoped** (partition
    windows naming regions — see
    :func:`~repro.geo.topology.validate_geo_faults`).
    """

    def __init__(
        self,
        topology: RegionTopology,
        platform_factory: "Callable[[str], AggregationPlatform]",
        trace: Trace,
        config: ReplayConfig | None = None,
        homes: dict[int, str] | None = None,
        availability: "AvailabilityTrace | None" = None,
        weights: dict[str, float] | None = None,
        selector: "Selector | None" = None,
        clients: "list[FLClient] | None" = None,
        chaos: "ChaosCorrelation | None" = None,
        seed: int = 0,
        population: "ClientPopulation | None" = None,
        controller: "ControllerConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
        wan_nbytes: float | None = None,
        workers: int | None = None,
        telemetry: TelemetryBus | None = None,
    ) -> None:
        if not callable(platform_factory):
            raise ConfigError("platform_factory must be callable")
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if wan_nbytes is not None and wan_nbytes <= 0:
            raise ConfigError(f"wan_nbytes must be positive, got {wan_nbytes}")
        self.topology = topology
        self.platform_factory = platform_factory
        self.trace = trace
        self.config = config or ReplayConfig()
        self.homes = dict(homes) if homes else None
        self.availability = availability
        self.weights = weights
        self.selector = selector
        self.clients = clients
        self.chaos = chaos
        self.seed = seed
        self.population = population
        self.controller = controller
        self.fault_plan = fault_plan
        #: bytes one cross-region shipment carries (the *aggregated*
        #: update — one model's worth, not the round's full ingress)
        self.wan_nbytes = wan_nbytes
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else ambient_bus()
        if fault_plan is not None:
            validate_geo_faults(fault_plan, topology)

    # ------------------------------------------------------------------ run
    def run(self, inline: bool = False) -> GeoReplayResult:
        """Replay every region cell (across forked workers and this
        process where possible) and merge.

        Routing, sub-traces, and all seeding are fixed before execution
        mode is chosen, so forked and inline runs are byte-identical —
        and a one-region topology returns the single cell's result as
        ``merged`` unchanged (byte-identical to the unsharded replay).
        """
        tel = self.telemetry.or_none() if self.telemetry is not None else None
        route = route_trace(self.trace, self.topology, self.homes, self.fault_plan)
        tasks = [
            (i, region, region_subtrace(self.trace, region, route.assignments[region]))
            for i, region in enumerate(self.topology.regions)
        ]

        def replay(task: tuple[int, str, Trace]) -> RegionReport:
            # No fault plan: geo's is region-scoped, and routing plus the
            # WAN phase apply it.
            index, region, sub = task
            rep = run_cell(
                self,
                partial(self.platform_factory, region),
                sub,
                shard=index,
                tenants=tuple(sorted({ev.tenant for ev in sub.events})),
                stream=tel is not None,
            )
            return RegionReport(region=region, **vars(rep))

        reports, workers = fan_out(
            replay, tasks, self.workers, inline, what="geo replay"
        )
        if workers > 1:
            for rep in reports:
                maybe_register(CounterCarrier(f"region:{rep.region}", rep.counters))
        shipments = self._run_wan(reports, route)
        merged = self._merge(reports, shipments)
        self._publish_streams(tel, reports, route, shipments)
        return GeoReplayResult(
            merged=merged,
            regions=reports,
            route=route,
            shipments=shipments,
            forked=workers > 1,
            workers=workers,
        )

    # ------------------------------------------------------------------ WAN
    def _run_wan(
        self, reports: list[RegionReport], route: GeoRoute
    ) -> list[WanShipment]:
        """Ship every completed non-root round's aggregated update to the
        root region over the directed WAN links, in a dedicated virtual
        environment.

        Shipments departing together contend on the shared pipe (the
        links are processor-sharing); partition windows freeze the links
        touching the partitioned region, stalling in-flight shipments
        until the heal — delayed, never lost.
        """
        root = self.topology.root
        if self.topology.n_regions == 1:
            return []
        nbytes = self.wan_nbytes if self.wan_nbytes is not None else self.config.nbytes
        pending: list[WanShipment] = []
        for rep in reports:
            if rep.region == root:
                continue
            spec = self.topology.link(rep.region, root)
            for rec in rep.result.records:
                if rec.aborted or rec.rejected or rec.shed or rec.complete_at < 0:
                    continue
                pending.append(
                    WanShipment(
                        src=rep.region,
                        dst=root,
                        tenant=rec.tenant,
                        round_id=rec.round_id,
                        at=rec.complete_at,
                        nbytes=nbytes,
                        weight=sum(w for _, w in rec.participants),
                        latency_s=spec.latency_s,
                    )
                )
        if not pending:
            return []
        pending.sort(key=lambda s: (s.at, s.src, s.tenant, s.round_id))
        env = Environment()
        links: dict[tuple[str, str], ProcessorSharingLink] = {}
        for pair in sorted({(s.src, s.dst) for s in pending}):
            spec = self.topology.link(*pair)
            links[pair] = ProcessorSharingLink(
                env, spec.capacity_bps, f"wan:{pair[0]}->{pair[1]}"
            )
        if self.fault_plan is not None:
            for win in sorted(
                self.fault_plan.partitions, key=lambda w: (w.start, w.nodes)
            ):
                frozen = [
                    link
                    for pair, link in links.items()
                    if pair[0] in win.nodes or pair[1] in win.nodes
                ]
                if frozen:
                    Process(
                        env,
                        _freeze_window(env, frozen, win.start, win.end),
                        f"wan:partition:{','.join(win.nodes)}",
                    )
        done: list[WanShipment] = []
        for shp in pending:
            Process(
                env,
                _ship(env, links[(shp.src, shp.dst)], shp, done.append),
                f"wan:t{shp.tenant}r{shp.round_id}",
            )
        env.run()
        if len(done) != len(pending):
            raise ConfigError(
                f"WAN simulation lost shipments: {len(done)} of {len(pending)}"
            )
        done.sort(key=lambda s: (s.at, s.src, s.tenant, s.round_id))
        return done

    # ---------------------------------------------------------------- merge
    def _merge(
        self, reports: list[RegionReport], shipments: list[WanShipment]
    ) -> ReplayResult:
        """Fold region results into one WAN-adjusted
        :class:`~repro.traces.replay.ReplayResult`.

        One region short-circuits to the cell's own result (byte-identity
        with the unsharded replay).  Otherwise the cells fold through
        :meth:`ReplayResult.merge`, every cross-region completed round's
        ``complete_at`` grows by its shipment's propagation + transfer
        time, and the merged SLO tracker is rebuilt from the adjusted
        records — digest addition is exact, so the totals equal a tracker
        that had observed the adjusted rounds live.
        """
        if len(reports) == 1:
            return reports[0].result
        cfg = self.config
        extra = {(s.tenant, s.round_id): s.wan_extra_s for s in shipments}
        merged = ReplayResult.merge(
            [rep.result for rep in reports],
            self.trace.horizon,
            cfg.slo_target_s,
            cfg.track_cost,
        )
        tracker = SloTracker(cfg.slo_target_s, controller=merged.slo.controller)
        # The merge orders records by arrival, so shifting completions
        # afterwards keeps that order; the cells' own records stay as-is.
        for i, rec in enumerate(merged.records):
            wan_extra = extra.get((rec.tenant, rec.round_id))
            if wan_extra:
                rec = merged.records[i] = replace(
                    rec, complete_at=rec.complete_at + wan_extra
                )
            if rec.rejected:
                tracker.reject(at=rec.arrival_at)
            elif rec.shed:
                tracker.shed(at=rec.arrival_at)
            elif rec.aborted:
                tracker.abort(at=rec.complete_at)
            elif rec.complete_at >= 0:
                tracker.observe(
                    rec.queue_wait, rec.service, deferred=rec.deferred, at=rec.complete_at
                )
            else:
                raise ConfigError(
                    f"round t{rec.tenant}r{rec.round_id} has no terminal outcome"
                )
        merged.slo = tracker
        return merged

    # ------------------------------------------------------------ telemetry
    def _publish_streams(
        self,
        tel: TelemetryBus | None,
        reports: list[RegionReport],
        route: GeoRoute,
        shipments: list[WanShipment],
    ) -> None:
        """Region-stamp and fold the cells' streams, weave in the
        parent's own records (failover episodes, WAN samples), and
        forward everything to the parent's subscribers in time order."""
        if tel is None:
            return
        merged = merge_streams(
            [rep.telemetry for rep in reports],
            regions=[rep.region for rep in reports],
        )
        extras: list[TelemetryRecord] = []
        for ep in route.episodes:
            common = dict(
                fallback=ep.fallback,
                tenants=",".join(str(t) for t in ep.tenants),
            )
            extras.append(
                TelemetryRecord(
                    at=ep.start,
                    kind="region-failover",
                    region=ep.region,
                    fields=tuple(sorted({**common, "phase": "drain"}.items())),
                )
            )
            extras.append(
                TelemetryRecord(
                    at=ep.end,
                    kind="region-failover",
                    region=ep.region,
                    fields=tuple(sorted({**common, "phase": "heal"}.items())),
                )
            )
        for shp in shipments:
            extras.append(
                TelemetryRecord(
                    at=shp.at + shp.wan_extra_s,
                    kind="wan-sample",
                    tenant=shp.tenant,
                    round_id=shp.round_id,
                    region=shp.src,
                    fields=tuple(
                        sorted(
                            dict(
                                src=shp.src,
                                dst=shp.dst,
                                nbytes=shp.nbytes,
                                weight=shp.weight,
                                latency_s=shp.latency_s,
                                transfer_s=shp.transfer_s,
                            ).items()
                        )
                    ),
                )
            )
        merged.extend(extras)
        merged.sort(key=lambda rec: (rec.at, rec.region, rec.shard))
        for rec in merged:
            tel.publish(rec)


def _freeze_window(env: Environment, links, start: float, end: float):
    """Freeze the given WAN links for [start, end) — in-flight shipments
    stall in place and resume at the heal."""
    if start > 0:
        yield env.timeout(start)
    for link in links:
        link.set_rate_factor(0.0)
    yield env.timeout(end - env.now)
    for link in links:
        link.set_rate_factor(1.0)


def _ship(env: Environment, link: ProcessorSharingLink, shp: WanShipment, emit):
    """One shipment: wait for departure, pay propagation, then contend on
    the shared pipe; reports the measured transfer time."""
    if shp.at > 0:
        yield env.timeout(shp.at)
    if shp.latency_s > 0:
        yield env.timeout(shp.latency_s)
    started = env.now
    yield link.transfer(shp.nbytes, label=f"t{shp.tenant}r{shp.round_id}")
    emit(replace(shp, transfer_s=env.now - started))
