"""The benchmark's four workloads: input builders, timed reps and checks.

Each workload is three functions, listed in :data:`WORKLOADS`, and an
optional fourth:

* ``setup(seed)`` builds every input from the seed — traces, client
  populations, arrival lists, platform configs — and returns them in a
  dict.  The benchmark times it as ``setup_s``.
* ``prepare(inputs)`` runs next, untimed, and adds what the checks
  compare against (``fanout``'s inline reference output).
* ``rep(inputs, inline)`` is the timed call.  It builds the platforms and
  engines from those inputs and runs them, returning the raw results.
  ``inline=True`` runs fan-out cells in-process (the traced run needs
  every span in one process); the other workloads ignore it.
* ``summarize(inputs, raw)`` runs untimed after every rep.  It serialises
  the simulated output canonically (the determinism digest), derives the
  modelled-system metrics and the per-layer counts, and runs the
  workload's correctness checks.

The benchmark reaches ``repro`` only through public constructors, public
functions and the scenario modules' public constants.  The few inputs the
scenario modules keep private (the chaos cell's controller knobs, the geo
WAN table) are written out here, so the inputs stay fixed when ``src/``
is refactored.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from repro.chaos.plan import FaultPlan, NicDegrade, PartitionWindow
from repro.cluster.node import NodeSpec
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES, RESNET152_BYTES
from repro.controlplane.reactive import ControllerConfig
from repro.core.partition import PartitionedRoundEngine
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.experiments import controlplane_scenarios as ctl
from repro.experiments import geo_scenarios as geo
from repro.experiments import stress50, stress100k
from repro.experiments import trace_scenarios as ts
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.geo import GeoReplayEngine, RegionTopology, WanLink
from repro.telemetry import (
    JsonlSink,
    RecordingSubscriber,
    TelemetryBus,
    slo_from_records,
    validate_stream,
)
from repro.traces.models import (
    Trace,
    availability_trace,
    diurnal_trace,
    merge_traces,
    mmpp_trace,
    poisson_trace,
)
from repro.traces.replay import ReplayConfig, TraceReplayEngine
from repro.workloads.arrival import concurrent_arrivals
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

#: fork workers a fan-out cell may use: the host's CPUs, at most two
FANOUT_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
#: where the serve-control check writes its JSONL stream (inside the checkout)
STREAM_DIR = Path(__file__).resolve().parents[2] / ".bench_build" / "e2e"


@dataclass
class Summary:
    """What one rep produced, reduced to what the benchmark reports."""

    #: the simulated output, JSON-ready; its sha256 is the rep's digest
    canon: object
    #: p95 round latency (virtual s) over the LIFL rounds the rep measures
    sim_latency_p95_s: float
    #: simulated CPU-seconds those rounds consumed
    sim_cpu_cost_s: float
    #: deterministic per-layer counts (and host-timed fan-out splits)
    counts: dict[str, float] = field(default_factory=dict)
    #: failed correctness checks, one message each
    errors: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest(self.canon)


def digest(canon: object) -> str:
    """sha256 of the canonical JSON form (floats serialise exactly)."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile (exact, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _round_canon(result) -> list:
    return [
        result.act,
        result.completion_time,
        result.cpu_total,
        sorted(result.cpu_by_component.items()),
        result.aggregators_created,
        result.aggregators_reused,
        result.nodes_used,
        result.updates_aggregated,
        result.cross_node_transfers,
        result.total_weight,
        result.aborted,
    ]


def _completed(rec) -> bool:
    return not (rec.aborted or rec.rejected or rec.shed) and rec.complete_at >= 0


def _replay_canon(result) -> dict:
    """A replay result's records and reports, host-time fields excluded."""
    return {
        "records": [
            [
                r.tenant,
                r.round_id,
                r.arrival_at,
                r.admit_at,
                r.complete_at,
                r.updates,
                r.aborted,
                r.rejected,
                r.deferred,
                r.shed,
                r.chaos_fraction,
                r.participants,
            ]
            for r in result.records
        ],
        "row": result.row(),
        "cost_cpu_s": result.cost_cpu_s,
    }


def _outcome_errors(name: str, trace, result) -> list[str]:
    """Every trace event must reach exactly one terminal outcome."""
    errors = []
    if len(result.records) != len(trace.events):
        errors.append(
            f"{name}: {len(trace.events)} trace events but {len(result.records)} records"
        )
    for r in result.records:
        outcomes = (_completed(r), r.rejected, r.aborted, r.shed)
        if sum(outcomes) != 1:
            errors.append(
                f"{name}: round t{r.tenant}r{r.round_id} has {sum(outcomes)} terminal outcomes"
            )
    return errors


def _replay_counts(results) -> dict[str, float]:
    """Outcome tallies over one or more replay results."""
    records = [r for res in results for r in res.records]
    return {
        "traces.replay.rounds": len(records),
        "traces.replay.completed": sum(_completed(r) for r in records),
        "traces.replay.rejected": sum(r.rejected for r in records),
        "traces.replay.deferred": sum(r.deferred for r in records),
        "traces.replay.shed": sum(r.shed for r in records),
        "traces.replay.aborted": sum(r.aborted for r in records),
        "traces.slo.attainment": _attainment(results),
    }


def _attainment(results) -> float:
    offered = sum(res.slo.rounds_total for res in results)
    attained = sum(res.slo.attainment * res.slo.rounds_total for res in results)
    return attained / offered if offered else 0.0


def first_events(trace, count: int):
    """The trace cut to its first ``count`` arrivals.

    Every workload serves a fixed number of rounds, so the amount of work
    in a rep does not depend on the seed; the seed only moves the arrival
    times and the draws.  Callers generate the trace over a horizon long
    enough to hold ``count`` arrivals on any seed.
    """
    if len(trace.events) < count:
        raise ValueError(f"trace has {len(trace.events)} arrivals, need {count}")
    cut = Trace(events=trace.events[:count], horizon=trace.horizon, source=trace.source)
    cut.validate()
    return cut


def _latencies(result) -> list[float]:
    return [r.latency for r in result.records if _completed(r)]


# ================================================================ round-burst
def setup_round_burst(seed: int) -> dict:
    """stress50's largest round: 900 concurrent ResNet-152 updates."""
    batch = stress50.BATCHES[-1]
    jitter = concurrent_arrivals(
        batch, jitter=stress50.ARRIVAL_JITTER_S, rng=make_rng(seed, "stress")
    )
    return {
        "arrivals": [(t, 1.0) for t in jitter],
        "nodes": [f"node{i:02d}" for i in range(stress50.N_NODES)],
        "systems": {"LIFL": PlatformConfig.lifl(), "SL-H": PlatformConfig.sl_h()},
    }


def rep_round_burst(inp: dict, inline: bool = False) -> dict:
    out = {}
    for system, cfg in inp["systems"].items():
        platform = AggregationPlatform(cfg, node_names=list(inp["nodes"]))
        out[system] = [
            platform.run_round(
                inp["arrivals"], RESNET152_BYTES, include_eval=False, record_timeline=False
            )
            for _ in range(2)  # warm round, then the measured round
        ]
    return out


def summarize_round_burst(inp: dict, raw: dict) -> Summary:
    n = len(inp["arrivals"])
    lifl, slh = raw["LIFL"][1], raw["SL-H"][1]
    errors = []
    if not lifl.act < slh.act:
        errors.append(f"round-burst: LIFL ACT {lifl.act} not below SL-H ACT {slh.act}")
    if lifl.aggregators_created != 0:
        errors.append(
            f"round-burst: LIFL measured round created {lifl.aggregators_created} aggregators"
        )
    for system, rounds in raw.items():
        for i, r in enumerate(rounds):
            if r.total_weight != n:
                errors.append(
                    f"round-burst: {system} round {i} aggregated weight {r.total_weight} != {n}"
                )
    return Summary(
        canon={system: [_round_canon(r) for r in rounds] for system, rounds in raw.items()},
        sim_latency_p95_s=lifl.act,
        sim_cpu_cost_s=lifl.cpu_total,
        errors=errors,
    )


# ============================================================== serve-diurnal
#: rounds a diurnal replay serves: the scenario's mean arrival count over
#: its 900 s horizon (4 tenants x 4/min x 15 min)
DIURNAL_ROUNDS = 240


def _diurnal_inputs(seed: int) -> dict:
    """trace-diurnal-multitenant's inputs: 4 tenants, 120 mobile clients,
    the first :data:`DIURNAL_ROUNDS` arrivals."""
    horizon = 2 * ts.DIURNAL_HORIZON_S
    trace = merge_traces(
        *(
            diurnal_trace(
                ts.DIURNAL_BASE_RATE,
                horizon,
                amplitude=0.7,
                period=ts.DIURNAL_PERIOD_S,
                seed=seed,
                tenant=t,
            )
            for t in range(ts.DIURNAL_TENANTS)
        )
    )
    population = make_population(ts.DIURNAL_CLIENTS, profile=MOBILE_PROFILE, seed=seed)
    avail = availability_trace(
        ts.DIURNAL_CLIENTS,
        horizon,
        seed=seed,
        mean_session=150.0,
        mean_gap=70.0,
        day_night_amplitude=0.6,
        period=ts.DIURNAL_PERIOD_S,
        prefix=MOBILE_PROFILE.name,
    )
    return {
        "seed": seed,
        "trace": first_events(trace, DIURNAL_ROUNDS),
        "config": ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=3,
            queue_limit=8,
            slo_target_s=ts.DIURNAL_SLO_S,
            track_cost=True,
        ),
        "availability": avail,
        "weights": population.weights(),
        "selector": Selector(SelectorConfig(aggregation_goal=8, over_provision=1.2)),
        "clients": population.clients,
        "nodes": [f"node{i}" for i in range(ts.N_NODES)],
    }


def _lifl_platform(nodes: list[str]) -> AggregationPlatform:
    return AggregationPlatform(PlatformConfig.lifl(), node_names=list(nodes))


def _diurnal_engine(inp: dict) -> TraceReplayEngine:
    return TraceReplayEngine(
        None,
        inp["trace"],
        inp["config"],
        availability=inp["availability"],
        weights=inp["weights"],
        selector=inp["selector"],
        clients=inp["clients"],
        seed=inp["seed"],
        platform_factory=partial(_lifl_platform, inp["nodes"]),
    )


def setup_serve_diurnal(seed: int) -> dict:
    return _diurnal_inputs(seed)


def rep_serve_diurnal(inp: dict, inline: bool = False):
    return _diurnal_engine(inp).run()


def summarize_serve_diurnal(inp: dict, raw) -> Summary:
    return Summary(
        canon=_replay_canon(raw),
        sim_latency_p95_s=p95(_latencies(raw)),
        sim_cpu_cost_s=raw.cost_cpu_s,
        counts=_replay_counts([raw]),
        errors=_outcome_errors("serve-diurnal", inp["trace"], raw),
    )


# ============================================================== serve-control
#: the placement-chaos reactive cell's controller (the scenario module
#: builds it in a private helper): health-aware placement and the round
#: watchdog, with pool and admission scaling off
CHAOS_CONTROLLER = ControllerConfig(
    pool_scaling=False,
    admission_control=False,
    placement_aware=True,
    min_rate_factor=0.5,
    placement_retries=3,
    retry_backoff_s=1.0,
    round_deadline_s=15.0,
    defer_deadline_s=0.0,
)


#: rounds each serve-control cell serves.  MMPP flash crowds average
#: ~10.6/min a tenant, so 340 rounds span about two of the scenario's 480 s
#: horizons: enough bursts that the modelled p95 latency and CPU cost move
#: under 5% from seed to seed (one horizon moved them up to 8%).
#: Placement-chaos is Poisson 10/min over its 300 s horizon.
FLASH_ROUNDS = 340
CHAOS_ROUNDS = 50


def setup_serve_control(seed: int) -> dict:
    """The autoscale-flashcrowd and placement-chaos reactive cells."""
    nodes = [f"node{i}" for i in range(ctl.N_NODES)]
    flash_trace = merge_traces(
        *(
            mmpp_trace(
                ctl.FLASH_CALM_PER_MIN,
                ctl.FLASH_BURST_PER_MIN,
                6 * ctl.FLASH_HORIZON_S,
                mean_calm=120.0,
                mean_burst=35.0,
                seed=seed + t,
                tenant=t,
            )
            for t in range(ctl.FLASH_TENANTS)
        )
    )
    flash = {
        "trace": first_events(flash_trace, FLASH_ROUNDS),
        "config": ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=1,
            queue_limit=3,
            slo_target_s=ctl.FLASH_SLO_S,
        ),
        "controller": ctl.FLASH_CONTROLLER,
        "fault_plan": None,
        "factory": partial(_lifl_platform, nodes),
    }
    start, end = ctl.CHAOS_PARTITION
    chaos = {
        "trace": first_events(
            poisson_trace(ctl.CHAOS_RATE_PER_MIN, 2 * ctl.CHAOS_HORIZON_S, seed=seed),
            CHAOS_ROUNDS,
        ),
        "config": ReplayConfig(
            round_updates=8,
            nbytes=RESNET18_BYTES,
            max_inflight=2,
            queue_limit=4,
            slo_target_s=ctl.CHAOS_SLO_S,
        ),
        "controller": CHAOS_CONTROLLER,
        "fault_plan": FaultPlan(
            seed=seed,
            partitions=(PartitionWindow(nodes=ctl.CHAOS_RACK0, start=start, end=end),),
            nic_degradations=(NicDegrade(node="node4", start=start, end=end, factor=0.3),),
        ),
        "factory": partial(
            AggregationPlatform,
            PlatformConfig.lifl(),
            node_names=nodes,
            node_spec=NodeSpec(name="template", max_service_capacity=ctl.CHAOS_NODE_CAPACITY),
        ),
    }
    return {"seed": seed, "cells": {"flashcrowd": flash, "placement-chaos": chaos}}


def rep_serve_control(inp: dict, inline: bool = False) -> dict:
    out = {}
    for name, cell in inp["cells"].items():
        bus = TelemetryBus()
        jsonl = io.StringIO()
        bus.subscribe(JsonlSink(jsonl, flush_every=1 << 30))
        recorder = RecordingSubscriber(bus)
        result = TraceReplayEngine(
            None,
            cell["trace"],
            cell["config"],
            seed=inp["seed"],
            platform_factory=cell["factory"],
            controller=cell["controller"],
            fault_plan=cell["fault_plan"],
            telemetry=bus,
        ).run()
        out[name] = (result, recorder.records, jsonl.getvalue())
    return out


def _stream_errors(name: str, result, records, jsonl: str) -> list[str]:
    """The stream rebuilds the engine's SLO report and passes the validator."""
    errors = []
    if slo_from_records(records).report() != result.slo.report():
        errors.append(f"{name}: slo_from_records(stream) differs from the engine's report")
    STREAM_DIR.mkdir(parents=True, exist_ok=True)
    path = STREAM_DIR / f"stream-{os.getpid()}.jsonl"
    try:
        path.write_text(jsonl, encoding="utf-8")
        validate_stream(str(path))
    except ConfigError as exc:
        errors.append(f"{name}: JSONL stream invalid: {exc}")
    finally:
        path.unlink(missing_ok=True)
    return errors


def summarize_serve_control(inp: dict, raw: dict) -> Summary:
    results = [result for result, _, _ in raw.values()]
    errors: list[str] = []
    for name, (result, records, jsonl) in raw.items():
        errors += _outcome_errors(name, inp["cells"][name]["trace"], result)
        errors += _stream_errors(name, result, records, jsonl)
    counts = _replay_counts(results)
    counts["controlplane.reactive.actions"] = sum(
        sum(res.controller.counts.values()) for res in results
    )
    counts["telemetry.records"] = sum(len(records) for _, records, _ in raw.values())
    counts["telemetry.jsonl_bytes"] = sum(len(jsonl.encode()) for _, _, jsonl in raw.values())
    return Summary(
        canon={
            name: {**_replay_canon(result), "stream": jsonl}
            for name, (result, _, jsonl) in raw.items()
        },
        sim_latency_p95_s=p95([lat for res in results for lat in _latencies(res)]),
        sim_cpu_cost_s=sum(res.cost_cpu_s for res in results),
        counts=counts,
        errors=errors,
    )


# ===================================================================== fanout
#: the geo-follow-the-sun WAN table (private in the scenario module):
#: asymmetric latency and capacity per direction
GEO_WAN_LINKS = (
    WanLink("eu", "us", latency_s=0.045, capacity_bps=1.0e8),
    WanLink("us", "eu", latency_s=0.040, capacity_bps=1.25e8),
    WanLink("ap", "us", latency_s=0.090, capacity_bps=6.0e7),
    WanLink("us", "ap", latency_s=0.085, capacity_bps=8.0e7),
    WanLink("ap", "eu", latency_s=0.120, capacity_bps=5.0e7),
    WanLink("eu", "ap", latency_s=0.110, capacity_bps=5.0e7),
)
#: rounds the geo cell serves: the scenario's mean count over its 480 s
#: horizon (6 tenants x 4/min x 8 min)
GEO_ROUNDS = 192
PARTITION_SCALE = "5k"
PARTITION_COHORTS = 2


def _geo_platform(region: str) -> AggregationPlatform:
    nodes = [f"{region}-node{i}" for i in range(geo.GEO_NODES_PER_REGION)]
    return AggregationPlatform(PlatformConfig.lifl(), node_names=nodes)


def _geo_inputs(seed: int) -> dict:
    """geo-follow-the-sun at three regions, rooted at ``us``."""
    regions = geo.GEO_REGION_NAMES
    topology = RegionTopology(
        regions,
        links=GEO_WAN_LINKS,
        fallbacks={r: regions[(i + 1) % len(regions)] for i, r in enumerate(regions)},
        root=regions[0],
    )
    trace = merge_traces(
        *(
            diurnal_trace(
                geo.GEO_BASE_RATE,
                2 * geo.GEO_HORIZON_S,
                amplitude=0.7,
                period=geo.GEO_PERIOD_S,
                phase_shift_s=regions.index(topology.home_of(t))
                * geo.GEO_PERIOD_S
                / len(regions),
                seed=seed,
                tenant=t,
            )
            for t in range(geo.GEO_TENANTS)
        )
    )
    config = ReplayConfig(
        round_updates=4,
        nbytes=RESNET18_BYTES,
        max_inflight=3,
        queue_limit=8,
        slo_target_s=geo.GEO_SLO_S,
    )
    return {"topology": topology, "trace": first_events(trace, GEO_ROUNDS), "config": config}


def _partition_inputs(seed: int) -> dict:
    """stress100k's 5k round pair: 5000 clients, 500 participants a round."""
    clients, participants, n_nodes = stress100k.SCALES[PARTITION_SCALE]
    population = ClientPopulation.generate(
        clients,
        seed=seed,
        horizon=stress100k.HORIZON_S,
        mean_session=stress100k.MEAN_SESSION_S,
        mean_gap=stress100k.MEAN_GAP_S,
    )
    selector = Selector(SelectorConfig(aggregation_goal=participants, over_provision=1.0))
    rounds = []
    for r in range(2):
        rng = make_rng(seed, f"stress100k:{PARTITION_SCALE}:r{r}")
        picked = selector.select_population(population, rng, population.available_mask(r * 60.0))
        offsets = population.hibernations(rng, picked) + population.training_durations(
            rng, picked
        )
        rounds.append(
            [(float(o), float(w)) for o, w in zip(offsets, population.weights(picked))]
        )
    return {"rounds": rounds, "nodes": [f"node{i:03d}" for i in range(n_nodes)]}


def _coalesced_platform(nodes: list[str]) -> AggregationPlatform:
    cfg = PlatformConfig.lifl(ingress_stage="gateway-coalesced")
    return AggregationPlatform(cfg, node_names=list(nodes))


def setup_fanout(seed: int) -> dict:
    return {
        "diurnal": _diurnal_inputs(seed),
        "geo": _geo_inputs(seed),
        "partition": _partition_inputs(seed),
        "seed": seed,
    }


def prepare_fanout(inp: dict) -> None:
    """The inline reference every forked rep must reproduce byte for byte."""
    inp["reference"] = _fanout_canon(rep_fanout(inp, inline=True))


def _timed(fn):
    """Run ``fn``; return its result, wall seconds and parent CPU seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def rep_fanout(inp: dict, inline: bool = False) -> dict:
    workers = FANOUT_WORKERS
    geo_inp = inp["geo"]
    part = inp["partition"]
    return {
        "shard": _timed(
            lambda: _diurnal_engine(inp["diurnal"]).run(shards=2, workers=workers, inline=inline)
        ),
        "geo": _timed(
            lambda: GeoReplayEngine(
                geo_inp["topology"],
                _geo_platform,
                geo_inp["trace"],
                geo_inp["config"],
                seed=inp["seed"],
                workers=workers,
            ).run(inline=inline)
        ),
        "partition": _timed(
            lambda: PartitionedRoundEngine(
                partial(_coalesced_platform, part["nodes"]),
                shards=PARTITION_COHORTS,
                workers=workers,
            ).run(part["rounds"], RESNET18_BYTES, inline=inline)
        ),
    }


def _fanout_canon(raw: dict) -> dict:
    shard, geo_res, part = (raw[k][0] for k in ("shard", "geo", "partition"))
    return {
        "shard": _replay_canon(shard.merged),
        "geo": {
            **_replay_canon(geo_res.merged),
            "geo_row": geo_res.row(),
            "shipments": [
                [s.src, s.dst, s.tenant, s.round_id, s.at, s.weight, s.latency_s, s.transfer_s]
                for s in geo_res.shipments
            ],
        },
        "partition": [_round_canon(r) for r in part.results],
    }


def _imbalance(cpu_by_part: list[float]) -> float:
    """Slowest part's CPU seconds over the mean part's."""
    mean = sum(cpu_by_part) / len(cpu_by_part) if cpu_by_part else 0.0
    return max(cpu_by_part) / mean if mean else 0.0


def summarize_fanout(inp: dict, raw: dict) -> Summary:
    (shard, shard_wall, shard_cpu) = raw["shard"]
    (geo_res, geo_wall, geo_cpu) = raw["geo"]
    (part, part_wall, part_cpu) = raw["partition"]
    canon = _fanout_canon(raw)
    errors = []
    for cell in ("shard", "geo", "partition"):
        if digest(canon[cell]) != digest(inp["reference"][cell]):
            errors.append(f"fanout: {cell} cell differs from its inline reference")
    root = inp["geo"]["topology"].root
    shipped = sum(geo_res.wan_weight_by_pair().values())
    completed_outside_root = sum(
        sum(w for _, w in rec.participants)
        for rep in geo_res.regions
        if rep.region != root
        for rec in rep.result.records
        if _completed(rec)
    )
    if abs(shipped - completed_outside_root) > 1e-9 * max(1.0, shipped):
        errors.append(
            f"fanout: WAN shipped weight {shipped} != completed non-root weight "
            f"{completed_outside_root}"
        )
    errors += _outcome_errors("fanout/shard", inp["diurnal"]["trace"], shard.merged)
    errors += _outcome_errors("fanout/geo", inp["geo"]["trace"], geo_res.merged)
    measured = part.results[1]
    counts = _replay_counts([shard.merged, geo_res.merged])
    counts["geo.wan_flows"] = len(geo_res.shipments)
    counts["geo.join_wait_s"] = geo_wall - geo_cpu
    counts["traces.shard.critical_path_s"] = shard.critical_path_seconds
    counts["traces.shard.imbalance"] = _imbalance([rep.cpu_seconds for rep in shard.shards])
    counts["traces.shard.join_wait_s"] = shard_wall - shard_cpu
    counts["core.partition.critical_path_s"] = part.critical_path_seconds
    counts["core.partition.imbalance"] = _imbalance([rep.cpu_seconds for rep in part.cohorts])
    counts["core.partition.join_wait_s"] = part_wall - part_cpu
    return Summary(
        canon=canon,
        sim_latency_p95_s=p95(
            _latencies(shard.merged) + _latencies(geo_res.merged) + [measured.act]
        ),
        sim_cpu_cost_s=shard.merged.cost_cpu_s + geo_res.merged.cost_cpu_s + measured.cpu_total,
        counts=counts,
        errors=errors,
    )


def _nothing_to_prepare(inp: dict) -> None:
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    rep: Callable[[dict, bool], object]
    summarize: Callable[[dict, object], Summary]
    #: the rep forks worker processes unless ``inline=True``
    forks: bool = False
    #: adds what the checks compare against to the inputs; runs after
    #: ``setup`` and outside ``setup_s``
    prepare: Callable[[dict], None] = _nothing_to_prepare


WORKLOADS = {
    w.name: w
    for w in (
        Workload("round-burst", setup_round_burst, rep_round_burst, summarize_round_burst),
        Workload("serve-diurnal", setup_serve_diurnal, rep_serve_diurnal, summarize_serve_diurnal),
        Workload("serve-control", setup_serve_control, rep_serve_control, summarize_serve_control),
        Workload(
            "fanout", setup_fanout, rep_fanout, summarize_fanout, forks=True, prepare=prepare_fanout
        ),
    )
}


def tamper(raw, name: str):
    """A copy of one rep's raw output with one simulated value changed —
    the self-test uses it to show that the checks catch a wrong output."""
    if name == "round-burst":
        lifl = raw["LIFL"]
        return {**raw, "LIFL": [lifl[0], replace(lifl[1], total_weight=lifl[1].total_weight - 1)]}
    if name == "serve-diurnal":
        return replace(raw, records=raw.records[:-1])
    if name == "serve-control":
        (result, records, jsonl) = raw["flashcrowd"]
        return {**raw, "flashcrowd": (replace(result, records=result.records[:-1]), records, jsonl)}
    shard, wall, cpu = raw["shard"]
    merged = replace(shard.merged, cost_cpu_s=shard.merged.cost_cpu_s + 1.0)
    return {**raw, "shard": (replace(shard, merged=merged), wall, cpu)}
