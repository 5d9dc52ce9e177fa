"""Multi-core sharded trace replay (`repro.traces.shard`).

The contract under test: sharding partitions *placement*, never
randomness — a shard replays its tenants' rounds with exactly the draws
the unsharded engine would have made, single-shard runs are byte-identical
to `TraceReplayEngine.run()`, and forked / inline / multiplexed-worker
execution modes all merge to identical results.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.fanout import WorkerError, critical_path_seconds
from repro.core.partition import PartitionedRoundEngine
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.geo import GeoReplayEngine, RegionTopology
from repro.perf.counters import collect
from repro.traces.models import availability_trace, merge_traces, poisson_trace
from repro.traces.replay import (
    ChaosCorrelation,
    ReplayConfig,
    ReplaySpec,
    TraceReplayEngine,
)
from repro.traces.shard import (
    ShardedReplayEngine,
    plan_shards,
    split_trace,
)
from repro.traces.slo import LatencyDigest, SloTracker

N_NODES = 4
HORIZON_S = 120.0
CONFIG = ReplayConfig(
    round_updates=4, nbytes=1e6, max_inflight=2, queue_limit=4, slo_target_s=10.0
)


def _lifl_platform() -> AggregationPlatform:
    return AggregationPlatform(
        PlatformConfig.lifl(), node_names=[f"node{i}" for i in range(N_NODES)]
    )


def _three_tenant_trace(seed: int = 5):
    return merge_traces(
        *(poisson_trace(8.0, HORIZON_S, seed=seed, tenant=t) for t in range(3))
    )


def _engine(trace, shards: int = 1, workers: int | None = None) -> ShardedReplayEngine:
    return ShardedReplayEngine(
        _lifl_platform, trace, ReplaySpec(CONFIG, seed=5), shards=shards, workers=workers
    )


def _record_key(rec):
    return (
        rec.tenant,
        rec.round_id,
        rec.arrival_at,
        rec.admit_at,
        rec.complete_at,
        rec.aborted,
        rec.rejected,
        tuple(rec.participants),
    )


def _workload_key(rec):
    """The shard-invariant part of a record: what was offered and drawn,
    not when contention let it finish."""
    return (rec.tenant, rec.round_id, rec.arrival_at, rec.updates, tuple(rec.participants))


# ------------------------------------------------------------------ planning
def test_plan_shards_is_tenant_affine_and_balanced():
    trace = _three_tenant_trace()
    plan = plan_shards(trace, 2)
    assert plan.n_shards == 2
    plan.validate(trace)
    # every tenant appears in exactly one shard
    assigned = sorted(t for shard in plan.assignments for t in shard)
    assert assigned == [0, 1, 2]
    # LPT: the heaviest tenant sits alone on its shard
    counts = {t: sum(1 for ev in trace.events if ev.tenant == t) for t in range(3)}
    heaviest = max(counts, key=lambda t: (counts[t], -t))
    solo = [shard for shard in plan.assignments if len(shard) == 1]
    assert any(shard == (heaviest,) for shard in solo)


def test_plan_shards_caps_at_tenant_count_and_is_deterministic():
    trace = _three_tenant_trace()
    assert plan_shards(trace, 16).n_shards == 3
    single = poisson_trace(6.0, HORIZON_S, seed=1)
    assert plan_shards(single, 4).assignments == ((0,),)
    assert plan_shards(trace, 2) == plan_shards(trace, 2)
    with pytest.raises(ConfigError):
        plan_shards(trace, 0)


def test_split_trace_preserves_ids_horizon_and_partitions_events():
    trace = _three_tenant_trace()
    plan = plan_shards(trace, 3)
    subs = [split_trace(trace, tenants) for tenants in plan.assignments]
    assert all(sub.horizon == trace.horizon for sub in subs)
    # the shards partition the event set exactly, ids untouched
    merged = sorted(
        ((ev.at, ev.tenant, ev.round_id) for sub in subs for ev in sub.events)
    )
    assert merged == [(ev.at, ev.tenant, ev.round_id) for ev in trace.events]


# ------------------------------------------------------------- digest merge
def test_latency_digest_merge_is_exact():
    rng = np.random.default_rng(7)
    samples = rng.exponential(3.0, size=500).tolist()
    whole = LatencyDigest()
    left, right = LatencyDigest(), LatencyDigest()
    for i, s in enumerate(samples):
        whole.add(s)
        (left if i % 2 else right).add(s)
    left.merge(right)
    assert left._counts == whole._counts  # bucket-exact, not approximate
    assert left.count == whole.count
    assert left.total == pytest.approx(whole.total)
    assert left.min == whole.min and left.max == whole.max
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert left.quantile(q) == whole.quantile(q)


def test_latency_digest_merge_rejects_mismatched_bucketing():
    with pytest.raises(ConfigError):
        LatencyDigest().merge(LatencyDigest(bins_per_decade=64))
    with pytest.raises(ConfigError):
        LatencyDigest().merge(LatencyDigest(lo=1e-2))


def test_slo_tracker_merge_sums_tallies_and_checks_target():
    a, b = SloTracker(5.0), SloTracker(5.0)
    a.observe(1.0, 2.0)
    a.reject()
    b.observe(0.5, 10.0)  # misses the SLO
    b.abort()
    a.merge(b)
    rep = a.report()
    assert rep["rounds"] == 4
    assert rep["completed"] == 2
    assert rep["aborted"] == 1 and rep["rejected"] == 1
    assert rep["slo_attainment"] == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        a.merge(SloTracker(6.0))


# ------------------------------------------------------------ sharded replay
def test_single_shard_is_byte_identical_to_sequential_replay():
    trace = _three_tenant_trace()
    seq = TraceReplayEngine(_lifl_platform(), trace, CONFIG, seed=5).run()
    sharded = _engine(trace, shards=1).run()
    assert sharded.row() == seq.row()
    assert sharded.merged.slo.report() == seq.slo.report()
    assert list(map(_record_key, sharded.merged.records)) == list(
        map(_record_key, seq.records)
    )
    assert sharded.merged.peak_inflight == seq.peak_inflight
    assert sharded.merged.peak_inflight_per_tenant == seq.peak_inflight_per_tenant


def test_forked_inline_and_multiplexed_workers_merge_identically():
    trace = _three_tenant_trace()
    forked = _engine(trace, shards=3, workers=3).run()
    inline = _engine(trace, shards=3).run(inline=True)
    two_workers = _engine(trace, shards=3, workers=2).run()
    assert forked.forked and not inline.forked
    assert forked.row() == inline.row() == two_workers.row()
    # shards come back in shard order, whatever the worker deal
    for result in (forked, inline, two_workers):
        assert [rep.shard for rep in result.shards] == [0, 1, 2]
    for other in (inline, two_workers):
        assert list(map(_record_key, forked.merged.records)) == list(
            map(_record_key, other.merged.records)
        )
    # the same replay twice is bit-stable
    again = _engine(trace, shards=3, workers=3).run()
    assert again.row() == forked.row()


def test_sharding_partitions_placement_but_never_randomness():
    """shards=1 vs shards=3: every offered round draws identical
    participants at an identical arrival — only contention-dependent
    completion may differ (each shard has its own fabric)."""
    trace = _three_tenant_trace()
    one = _engine(trace, shards=1).run()
    three = _engine(trace, shards=3).run()
    assert one.row()["rounds"] == three.row()["rounds"] == len(trace.events)
    assert list(map(_workload_key, one.merged.records)) == list(
        map(_workload_key, three.merged.records)
    )
    # tenant-affinity: each shard's records stay within its tenants
    for rep in three.shards:
        assert {rec.tenant for rec in rep.result.records} <= set(rep.tenants)
    assert three.merged.peak_inflight == sum(r.result.peak_inflight for r in three.shards)


def test_single_tenant_trace_collapses_to_one_shard():
    trace = poisson_trace(8.0, HORIZON_S, seed=3)
    seq = TraceReplayEngine(_lifl_platform(), trace, CONFIG, seed=5).run()
    collapsed = _engine(trace, shards=4).run()
    assert len(collapsed.shards) == 1
    assert not collapsed.forked
    assert collapsed.row() == seq.row()


def test_replay_engine_run_shards_entry_point():
    trace = _three_tenant_trace()
    via_engine = TraceReplayEngine(
        None, trace, CONFIG, seed=5, platform_factory=_lifl_platform
    ).run(shards=3)
    direct = _engine(trace, shards=3).run()
    assert via_engine.row() == direct.row()
    # sharding without a factory is a configuration error
    with pytest.raises(ConfigError):
        TraceReplayEngine(_lifl_platform(), trace, CONFIG, seed=5).run(shards=2)
    with pytest.raises(ConfigError):
        TraceReplayEngine(None, trace, CONFIG, seed=5)
    # ... and so is sharding with a live platform next to the factory
    # (shards build their own; a mismatched pair would silently diverge)
    both = TraceReplayEngine(
        _lifl_platform(), trace, CONFIG, seed=5, platform_factory=_lifl_platform
    )
    with pytest.raises(ConfigError, match="ignores a supplied platform"):
        both.run(shards=2)
    # but a lazily-built platform from a 1-shard run does not poison
    # later sharded runs of the same engine
    lazy = TraceReplayEngine(
        None, trace, CONFIG, seed=5, platform_factory=_lifl_platform
    )
    lazy.run()
    assert lazy.run(shards=3).row()["rounds"] == len(trace.events)


def _fails_in_tasks(exit_hard: bool = False, planning_calls: int = 0):
    """A platform factory that breaks every task, in whichever process runs
    it: it raises, or (with ``exit_hard``) a forked worker dies before it
    can report.  Its first ``planning_calls`` calls succeed — the
    partitioned engine builds one platform in the parent to plan — and
    forked workers inherit the spent count."""
    parent = os.getpid()
    left = [planning_calls]

    def factory(*_region) -> AggregationPlatform:
        if left[0]:
            left[0] -= 1
            return AggregationPlatform(
                PlatformConfig.lifl(), node_names=[f"node{i}" for i in range(8)]
            )
        if exit_hard and os.getpid() != parent:
            os._exit(1)
        raise RuntimeError("boom")

    return factory


def _sharded(factory, config=CONFIG, **kw) -> ShardedReplayEngine:
    spec = ReplaySpec(config, seed=5, **kw)
    return ShardedReplayEngine(factory, _three_tenant_trace(), spec, shards=3, workers=3)


def _run_sharded(factory):
    _sharded(factory).run()


def _run_partitioned(factory):
    arrivals = [(0.25 * i, 10.0 + i) for i in range(100)]
    PartitionedRoundEngine(factory, shards=3, workers=3).run([arrivals], 1e6)


def _geo(factory, config=CONFIG, **kw) -> GeoReplayEngine:
    topology = RegionTopology(
        ("us", "eu", "ap"), fallbacks={"us": "eu", "eu": "ap", "ap": "us"}
    )
    return GeoReplayEngine(
        topology, factory, _three_tenant_trace(), config, seed=5, workers=3, **kw
    )


def _run_geo(factory):
    _geo(factory).run()


@pytest.mark.parametrize(
    "run, exit_hard, planning_calls, prefix",
    [
        (_run_sharded, False, 0, "sharded replay failed"),
        (_run_partitioned, False, 1, "partitioned round failed"),
        (_run_geo, False, 0, "geo replay failed"),
        (_run_sharded, True, 0, "sharded replay failed"),
    ],
    ids=["sharded", "partitioned", "geo", "sharded-died"],
)
def test_forked_worker_failure_names_its_shards(run, exit_hard, planning_calls, prefix):
    # Each engine runs three single-task shares: share 0 in the parent and
    # two on forked workers.  Every one fails, and the typed error names
    # each failed task under the engine's prefix.
    with pytest.raises(WorkerError, match=prefix) as err:
        run(_fails_in_tasks(exit_hard, planning_calls))
    assert isinstance(err.value, RuntimeError)
    message = str(err.value)
    for task in range(3):
        assert f"tasks [{task}]: " in message
    if exit_hard:
        # the parent's share raises; the forked shares die unreported
        parent_share, forked_shares = message.split("; tasks [1]: ", 1)
        assert "tasks [0]: " in parent_share
        assert "RuntimeError: boom" in parent_share
        assert forked_shares.count("worker died without reporting") == 2
        assert "RuntimeError: boom" not in forked_shares
    else:
        assert message.count("RuntimeError: boom") == 3


@pytest.mark.parametrize("build", [_sharded, _geo], ids=["sharded", "geo"])
def test_fanned_out_engines_reject_bad_inputs_before_forking(build):
    # The single-cell engine's input checks run in the constructor, so
    # they raise before any cell calls the (failing) platform factory.
    factory = _fails_in_tasks()
    with pytest.raises(ConfigError, match="chaos correlation needs an availability trace"):
        build(factory, chaos=ChaosCorrelation())
    with pytest.raises(ConfigError, match="queue_limit must be >= 0"):
        build(factory, config=ReplayConfig(queue_limit=-1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("quorum_fraction", 0.0),
        ("heartbeat_timeout", 0.0),
        ("sweep_interval", 0.0),
        ("recovery_policy", "nope"),
    ],
)
def test_bad_chaos_correlation_fails_at_construction(field, value):
    # Each wave copies these fields into a FaultPlan; a bad one must fail
    # when the engine is built, not mid-replay at the first dip (which a
    # sharded run reports as a WorkerError from its forked cells).
    inputs = {
        "availability": availability_trace(8, HORIZON_S, seed=5),
        "chaos": ChaosCorrelation(**{field: value}),
    }
    named = field.split("_")[0]
    with pytest.raises(ConfigError, match=named):
        TraceReplayEngine(
            _lifl_platform(), _three_tenant_trace(), CONFIG, seed=5, **inputs
        )
    with pytest.raises(ConfigError, match=named):
        _sharded(_lifl_platform, **inputs)


def _profiled_sharded(inline: bool):
    result = _engine(_three_tenant_trace(), shards=3, workers=3).run(inline=inline)
    return result, result.shards


def _profiled_geo(inline: bool):
    result = _geo(lambda region: _lifl_platform()).run(inline=inline)
    return result, result.regions


def _profiled_partitioned(inline: bool):
    arrivals = [(0.25 * i, 10.0 + i) for i in range(100)]
    result = PartitionedRoundEngine(_lifl_platform, shards=3, workers=3).run(
        [arrivals], 1e6, inline=inline
    )
    return result, result.cohorts


PROFILED = pytest.mark.parametrize(
    "run, labels",
    [
        (_profiled_sharded, ["shard0", "shard1", "shard2"]),
        (_profiled_geo, ["region:us", "region:eu", "region:ap"]),
        (_profiled_partitioned, ["cohort0", "cohort1", "cohort2"]),
    ],
    ids=["sharded", "geo", "partitioned"],
)


@PROFILED
def test_forked_cells_credit_profile_counters(run, labels):
    with collect() as perf:
        result, reports = run(inline=False)
    assert result.forked
    labelled = perf.labelled()
    assert list(labelled) == labels
    for rep, label in zip(reports, labels):
        assert rep.perf_label == label
        assert labelled[label].events_processed == rep.counters["events_processed"]
        assert labelled[label].heap_pushes == rep.counters["heap_pushes"]
        assert rep.counters["events_processed"] > 0
        assert rep.cpu_seconds > 0.0
    assert critical_path_seconds(reports) > 0.0


@PROFILED
def test_inline_cells_are_counted_once_without_carriers(run, labels):
    with collect() as forked:
        _, forked_reports = run(inline=False)
    with collect() as perf:
        result, reports = run(inline=True)
    assert not result.forked
    assert perf.labelled() == {}
    cells = sum(rep.counters["events_processed"] for rep in reports)
    assert cells == sum(rep.counters["events_processed"] for rep in forked_reports)
    # The parent's own phase (geo's WAN, the cohorts' root) registers its
    # environments directly in both modes; the sharded engine has none.
    parent = forked.counters().events_processed - cells
    assert perf.counters().events_processed == cells + parent
    if run is _profiled_sharded:
        assert parent == 0


def test_spec_is_validated_once_per_run(monkeypatch):
    calls = []
    validate = ReplaySpec.validate

    def counted(spec):
        calls.append(spec)
        validate(spec)

    monkeypatch.setattr(ReplaySpec, "validate", counted)
    trace = _three_tenant_trace()
    replay = TraceReplayEngine(None, trace, CONFIG, seed=5, platform_factory=_lifl_platform)
    replay.run(shards=3, inline=True)
    assert len(calls) <= 2
    calls.clear()
    _engine(trace, shards=3).run(inline=True)
    assert len(calls) == 1
    calls.clear()
    _geo(lambda region: _lifl_platform()).run(inline=True)
    assert len(calls) == 1


def test_empty_trace_keeps_report_shape():
    from repro.traces.models import Trace

    result = _engine(Trace(events=[], horizon=0.0), shards=4).run()
    assert result.row()["rounds"] == 0
    assert len(result.shards) == 1
