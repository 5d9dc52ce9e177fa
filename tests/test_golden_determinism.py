"""Golden determinism for the chaos- and trace-era scenarios.

Same campaign seed ⇒ byte-identical per-scenario JSON — sequential vs
``--jobs 4``, with and without ``--profile``.  This is the satellite
guard for the seeding discipline: every random choice (dropout victims,
crash victims, arrival jitter, trace events, round participants) derives
from the campaign seed, never from process or scheduling state.

The trace scenarios run one filtered cell each (``system=LIFL``) so the
guard stays fast; the filter itself exercises the typed ``--filter``
coercion path on the way.  The sharded-replay tests pin the multi-core
path: forked vs inline shard execution byte-identical, and shards=1 vs
shards=4 identical in everything sharding must not perturb (offered
rounds, participant draws) — see also ``tests/test_traces_shard.py``.
"""

from __future__ import annotations

import os

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import CampaignRunner

SCENARIOS = ("chaos-sweep", "hetero-nic", "stress500-multitenant")
TRACE_SCENARIOS = (
    "trace-poisson-slo",
    "trace-diurnal-multitenant",
    "trace-burst-chaos",
)
#: every paper-figure experiment — the seed tree the policy registry must
#: reproduce byte for byte under default policy names
FIGURE_SCENARIOS = (
    "fig04",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig13",
    "capacity",
    "overhead",
)
SEED = 11


def _campaign_json(
    tmp_path,
    subdir: str,
    jobs: int,
    profile: bool,
    scenarios: tuple[str, ...] = SCENARIOS,
    filters: dict[str, str] | None = None,
) -> dict[str, bytes]:
    out_dir = str(tmp_path / subdir)
    runner = CampaignRunner(
        jobs=jobs, seed=SEED, out_dir=out_dir, profile=profile, filters=filters
    )
    result = runner.run([get_scenario(name) for name in scenarios])
    blobs: dict[str, bytes] = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs, result


def test_chaos_scenarios_golden_json_seq_vs_parallel_vs_profile(tmp_path):
    seq, seq_result = _campaign_json(tmp_path, "seq", jobs=1, profile=False)
    par, par_result = _campaign_json(tmp_path, "par", jobs=4, profile=False)
    prof, prof_result = _campaign_json(tmp_path, "prof", jobs=4, profile=True)
    assert set(seq) == {f"{name}.json" for name in SCENARIOS}
    for name in seq:
        assert seq[name] == par[name], f"{name}: sequential vs --jobs 4 differ"
        assert seq[name] == prof[name], f"{name}: --profile changed the JSON"
    # the rendered reports match too, not just the row files
    for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
        assert seq_rep.text == par_rep.text
    # profiling actually attached counters without touching the rows
    assert all(rec.perf is None for rep in seq_result.reports for rec in rep.records)
    prof_records = [rec for rep in prof_result.reports for rec in rep.records]
    assert prof_records
    assert all(rec.perf is not None for rec in prof_records)
    assert all(rec.perf["events_processed"] > 0 for rec in prof_records)


def test_sharded_trace_cell_golden_json_seq_vs_parallel_vs_profile(tmp_path):
    """The shards=4 diurnal cell through every execution mode.

    How the shards actually execute differs per mode: a sequential
    campaign may fork shard workers (CPU-count permitting), while a
    ``--jobs 4`` campaign runs each cell in a daemonic pool worker where
    the shards must execute inline.  Identical JSON proves forked and
    inline sharding merge byte-identically.
    """
    filters = {"system": "LIFL", "shards": "4"}
    scenarios = ("trace-diurnal-multitenant",)
    seq, _ = _campaign_json(
        tmp_path, "sh-seq", jobs=1, profile=False, scenarios=scenarios, filters=filters
    )
    par, _ = _campaign_json(
        tmp_path, "sh-par", jobs=4, profile=False, scenarios=scenarios, filters=filters
    )
    prof, prof_result = _campaign_json(
        tmp_path, "sh-prof", jobs=1, profile=True, scenarios=scenarios, filters=filters
    )
    for name in seq:
        assert seq[name] == par[name], f"{name}: forked vs inline shards differ"
        assert seq[name] == prof[name], f"{name}: --profile changed the JSON"
    # --profile saw the shards' engine work whichever way they executed
    # (labelled per-shard carriers when forked, direct envs when inline)
    rec = prof_result.reports[0].records[0]
    assert rec.perf is not None and rec.perf["events_processed"] > 0


def test_sharded_vs_sequential_diurnal_report_invariants():
    """shards=1 vs shards=4 on the diurnal workload: the offered workload
    (rounds, arrivals, sampled participants) is byte-identical; only
    contention-dependent timing may move, since each shard serves its
    tenants on its own fabric."""
    from repro.experiments.trace_scenarios import _diurnal_replay

    one = _diurnal_replay("LIFL", seed=SEED).run()
    four = _diurnal_replay("LIFL", seed=SEED).run(shards=4)
    assert len(four.shards) == 4
    assert four.row()["rounds"] == one.row()["rounds"] == len(one.records)
    key = lambda r: (r.tenant, r.round_id, r.arrival_at, r.updates, tuple(r.participants))  # noqa: E731
    assert list(map(key, four.merged.records)) == list(map(key, one.records))
    assert four.row()["tenants"] == one.row()["tenants"]
    # and the sharded run itself is bit-stable
    again = _diurnal_replay("LIFL", seed=SEED).run(shards=4)
    assert again.row() == four.row()


def test_trace_scenarios_golden_json_seq_vs_parallel_vs_profile(tmp_path):
    """One unsharded LIFL cell of each trace scenario: replay timelines
    and SLO rows must be byte-identical across execution modes.  (The
    shards=4 cell has its own golden test above.)"""
    filters = {"system": "LIFL", "shards": "1"}
    seq, seq_result = _campaign_json(
        tmp_path, "tr-seq", jobs=1, profile=False,
        scenarios=TRACE_SCENARIOS, filters=filters,
    )
    par, par_result = _campaign_json(
        tmp_path, "tr-par", jobs=4, profile=False,
        scenarios=TRACE_SCENARIOS, filters=filters,
    )
    prof, _ = _campaign_json(
        tmp_path, "tr-prof", jobs=4, profile=True,
        scenarios=TRACE_SCENARIOS, filters=filters,
    )
    assert set(seq) == {f"{name}.json" for name in TRACE_SCENARIOS}
    for name in seq:
        assert seq[name] == par[name], f"{name}: sequential vs --jobs 4 differ"
        assert seq[name] == prof[name], f"{name}: --profile changed the JSON"
    for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
        assert seq_rep.text == par_rep.text
    # the SLO columns actually made it into the recorded rows
    rows = [row for rep in seq_result.reports for row in rep.rows]
    assert rows
    for row in rows:
        for key in ("latency_p50_s", "latency_p95_s", "latency_p99_s", "slo_attainment"):
            assert key in row


def test_controlplane_scenarios_golden_json_seq_vs_parallel(tmp_path):
    """One controller-enabled cell of each control-plane scenario:
    sequential vs ``--jobs 4`` byte-identical — the reactive controller
    (ticks, scale actions, deferral, watchdog, health-aware placement)
    takes no random draws and perturbs nothing schedule-dependent."""
    cells = (
        ("autoscale-flashcrowd", {"mode": "reactive", "shards": "1"}),
        ("placement-chaos", {"placement": "reactive"}),
    )
    for name, filters in cells:
        seq, seq_result = _campaign_json(
            tmp_path, f"ctl-seq-{name}", jobs=1, profile=False,
            scenarios=(name,), filters=filters,
        )
        par, par_result = _campaign_json(
            tmp_path, f"ctl-par-{name}", jobs=4, profile=False,
            scenarios=(name,), filters=filters,
        )
        assert set(seq) == {f"{name}.json"}
        assert seq[f"{name}.json"] == par[f"{name}.json"], (
            f"{name}: sequential vs --jobs 4 differ"
        )
        for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
            assert seq_rep.text == par_rep.text
        # the controller actually ran and its columns reached the rows
        rows = [row for rep in seq_result.reports for row in rep.rows]
        assert rows
        for row in rows:
            assert row["ctl_ticks"] > 0
            assert "shed" in row and "deferred" in row


def test_figure_scenarios_golden_json_seq_vs_parallel(tmp_path):
    """All eight paper experiments, sequential vs ``--jobs 4``: with the
    policy registry resolving every default-named decision (placement's
    ``bestfit``, the selector paths, queue admission), the figure rows
    must stay byte-identical — the registry refactor is observationally
    invisible to the paper reproduction.  The ``overhead`` scenario is
    the one exception: it stopwatch-times real placement calls, so its
    ``measured_ms`` readings move with machine load; everything else in
    its JSON (operations, budgets, structure) must still match.

    The sequential campaign runs under an ambient (but unsubscribed)
    telemetry bus, so the same equality assertions also pin the bus's
    zero-overhead guarantee across every figure experiment."""
    import json

    from repro.telemetry.bus import TelemetryBus, capture

    with capture(TelemetryBus()):
        seq, seq_result = _campaign_json(
            tmp_path, "fig-seq", jobs=1, profile=False, scenarios=FIGURE_SCENARIOS
        )
    par, par_result = _campaign_json(
        tmp_path, "fig-par", jobs=4, profile=False, scenarios=FIGURE_SCENARIOS
    )
    assert set(seq) == {f"{name}.json" for name in FIGURE_SCENARIOS}

    def _strip_stopwatch(obj):
        if isinstance(obj, dict):
            return {
                k: (0.0 if k == "measured_ms" else _strip_stopwatch(v))
                for k, v in obj.items()
            }
        if isinstance(obj, list):
            return [_strip_stopwatch(v) for v in obj]
        return obj

    for name in seq:
        if name == "overhead.json":
            assert _strip_stopwatch(json.loads(seq[name])) == _strip_stopwatch(
                json.loads(par[name])
            ), f"{name}: sequential vs --jobs 4 differ beyond the stopwatch"
        else:
            assert seq[name] == par[name], f"{name}: sequential vs --jobs 4 differ"
    for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
        if seq_rep.spec.name == "overhead":
            continue  # stopwatch readings appear in the rendered text too
        assert seq_rep.text == par_rep.text


def test_policy_tournament_golden_json_seq_vs_parallel(tmp_path):
    """The full policy × workload tournament grid, sequential vs
    ``--jobs 4``: every contender's replay draws only from injected RNG
    streams, so the ranked brackets are a pure function of the campaign
    seed."""
    scenarios = ("policy-tournament",)
    seq, seq_result = _campaign_json(
        tmp_path, "pt-seq", jobs=1, profile=False, scenarios=scenarios
    )
    par, par_result = _campaign_json(
        tmp_path, "pt-par", jobs=4, profile=False, scenarios=scenarios
    )
    assert set(seq) == {"policy-tournament.json"}
    assert seq["policy-tournament.json"] == par["policy-tournament.json"]
    for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
        assert seq_rep.text == par_rep.text
    # the ranked report and its cost metric actually materialized
    rows = [row for rep in seq_result.reports for row in rep.rows]
    assert rows
    for row in rows:
        assert row["cost_cpu_s"] > 0
        assert "attainment_per_cost" in row
    assert "bracket winners:" in seq_result.reports[0].text


def test_geo_scenarios_golden_json_seq_vs_parallel_vs_profile(tmp_path):
    """One LIFL cell of each geo scenario through every execution mode.

    A sequential campaign may fork region workers (CPU-count permitting)
    while ``--jobs 4`` forces the regions inline inside daemonic pool
    workers, so equality here golden-pins forked vs inline federation —
    the WAN simulation, the failover routing, and the exact-merge all
    derive purely from the campaign seed."""
    cells = (
        ("geo-follow-the-sun", {"system": "LIFL", "regions": "3"}),
        ("geo-partition-failover", {"system": "LIFL", "regions": "3"}),
    )
    for name, filters in cells:
        seq, seq_result = _campaign_json(
            tmp_path, f"geo-seq-{name}", jobs=1, profile=False,
            scenarios=(name,), filters=filters,
        )
        par, par_result = _campaign_json(
            tmp_path, f"geo-par-{name}", jobs=4, profile=False,
            scenarios=(name,), filters=filters,
        )
        prof, _ = _campaign_json(
            tmp_path, f"geo-prof-{name}", jobs=1, profile=True,
            scenarios=(name,), filters=filters,
        )
        assert set(seq) == {f"{name}.json"}
        assert seq[f"{name}.json"] == par[f"{name}.json"], (
            f"{name}: sequential vs --jobs 4 differ"
        )
        assert seq[f"{name}.json"] == prof[f"{name}.json"], (
            f"{name}: --profile changed the JSON"
        )
        for seq_rep, par_rep in zip(seq_result.reports, par_result.reports):
            assert seq_rep.text == par_rep.text
        rows = [row for rep in seq_result.reports for row in rep.rows]
        assert rows
        for row in rows:
            assert row["regions"] == 3 and row["wan_flows"] > 0
            if name == "geo-partition-failover":
                assert row["failover_rounds"] > 0
                assert row["weight_conserved"] is True


def test_figure_campaign_byte_identical_with_geo_active(tmp_path):
    """The zero-overhead-when-unconfigured pin for the geo subsystem: a
    figure campaign run while geo machinery is fully imported, a
    topology constructed/validated, a trace routed through it, and an
    ambient telemetry bus installed must produce byte-identical JSON to
    a plain campaign.  (``repro.geo`` is never imported by the figure
    modules themselves; this proves even *active* geo state in the same
    process perturbs nothing.)  A fast figure subset keeps the guard
    cheap — the full eight-figure equality runs in
    ``test_figure_scenarios_golden_json_seq_vs_parallel``."""
    from repro.geo import RegionTopology, route_trace
    from repro.telemetry.bus import TelemetryBus, capture
    from repro.traces.models import poisson_trace

    subset = ("fig04", "fig13", "capacity")
    plain, plain_result = _campaign_json(
        tmp_path, "geo-off", jobs=1, profile=False, scenarios=subset
    )
    topology = RegionTopology(("us", "eu"), fallbacks={"eu": "us", "us": "eu"})
    route = route_trace(poisson_trace(6.0, 30.0, seed=3), topology)
    assert route.assignments  # geo actually did work in this process
    with capture(TelemetryBus()):
        active, active_result = _campaign_json(
            tmp_path, "geo-on", jobs=1, profile=False, scenarios=subset
        )
    assert set(plain) == {f"{name}.json" for name in subset}
    for name in plain:
        assert plain[name] == active[name], f"{name}: geo presence changed the JSON"
    for a, b in zip(plain_result.reports, active_result.reports):
        assert a.text == b.text


def test_stress100k_small_cell_golden_json_seq_vs_parallel(tmp_path):
    """The stress100k 5k cell (all shard values) through sequential and
    ``--jobs 4`` campaigns: the partitioned protocol's rows must be
    byte-identical whether cohorts fork (sequential campaign) or run
    inline (daemonic pool workers), and across the shard axis at all —
    the shards=1 row IS the unpartitioned sequential engine, so equality
    here golden-pins partitioned == unpartitioned."""
    filters = {"scale": "5k"}
    scenarios = ("stress100k",)
    seq, seq_result = _campaign_json(
        tmp_path, "100k-seq", jobs=1, profile=False, scenarios=scenarios, filters=filters
    )
    par, _ = _campaign_json(
        tmp_path, "100k-par", jobs=4, profile=False, scenarios=scenarios, filters=filters
    )
    assert set(seq) == {"stress100k.json"}
    for name in seq:
        assert seq[name] == par[name], f"{name}: sequential vs --jobs 4 differ"
    rows = [row for rep in seq_result.reports for row in rep.rows]
    assert {row["shards"] for row in rows} == {1, 2, 4}
    base = {k: v for k, v in rows[0].items() if k not in ("shards", "cpu_s")}
    for row in rows[1:]:
        assert {k: v for k, v in row.items() if k not in ("shards", "cpu_s")} == base
    assert "partition-invariant" in seq_result.reports[0].text
