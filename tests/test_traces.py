"""Trace models and SLO analytics: determinism, shape, and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.traces.models import (
    Trace,
    TraceEvent,
    availability_trace,
    diurnal_trace,
    load_trace,
    merge_traces,
    mmpp_trace,
    poisson_trace,
    save_trace,
)
from repro.traces.slo import LatencyDigest, SloTracker


# ------------------------------------------------------------------ arrivals
@pytest.mark.parametrize(
    "make",
    [
        lambda seed: poisson_trace(10, 300.0, seed=seed),
        lambda seed: diurnal_trace(8, 300.0, amplitude=0.6, period=120.0, seed=seed),
        lambda seed: mmpp_trace(4, 40, 300.0, mean_calm=60, mean_burst=15, seed=seed),
    ],
    ids=["poisson", "diurnal", "mmpp"],
)
def test_generators_replay_byte_identically_from_seed(make):
    a, b = make(7), make(7)
    assert a.events == b.events
    assert a.events != make(8).events  # the seed actually matters


@pytest.mark.parametrize(
    "trace",
    [
        poisson_trace(10, 300.0, seed=1),
        diurnal_trace(8, 300.0, amplitude=0.6, period=120.0, seed=1),
        mmpp_trace(4, 40, 300.0, seed=1),
    ],
    ids=["poisson", "diurnal", "mmpp"],
)
def test_generated_traces_are_valid_timelines(trace):
    trace.validate()  # sorted, in-horizon, sequential round ids
    assert len(trace) > 0
    assert all(0 <= ev.at < trace.horizon for ev in trace)
    assert [ev.round_id for ev in trace] == list(range(len(trace)))


def test_poisson_rate_roughly_matched():
    trace = poisson_trace(rate_per_min=30, horizon=1200.0, seed=3)
    # 30/min over 20 min = 600 expected; allow generous CI slack
    assert 450 < len(trace) < 750


def test_diurnal_rate_actually_swings():
    period = 200.0
    trace = diurnal_trace(
        30, horizon=1000.0, amplitude=0.9, period=period, seed=5
    )
    bucket = period / 2
    counts, _ = np.histogram(
        [ev.at for ev in trace.events], bins=np.arange(0.0, trace.horizon + bucket, bucket)
    )
    # sin > 0 in the first half-period, < 0 in the second: odd buckets
    # (troughs) must be consistently thinner than even buckets (crests).
    crests = sum(counts[0::2])
    troughs = sum(counts[1::2])
    assert crests > 1.5 * troughs


def test_mmpp_is_burstier_than_poisson_at_same_mean():
    mmpp = mmpp_trace(3, 30, 2000.0, mean_calm=90, mean_burst=30, seed=9)
    counts, _ = np.histogram(
        [ev.at for ev in mmpp.events], bins=np.arange(0.0, mmpp.horizon + 30.0, 30.0)
    )
    # index of dispersion (var/mean) ~1 for Poisson, >> 1 for MMPP
    assert counts.var() / counts.mean() > 2.0


def test_merge_renumbers_round_ids_per_tenant():
    a = poisson_trace(10, 120.0, seed=1, tenant=0)
    b = poisson_trace(10, 120.0, seed=2, tenant=1)
    merged = merge_traces(a, b)
    merged.validate()
    assert merged.tenants == 2
    assert len(merged) == len(a) + len(b)
    for tenant in (0, 1):
        ids = [ev.round_id for ev in merged if ev.tenant == tenant]
        assert ids == list(range(len(ids)))


def test_validate_rejects_malformed_timelines():
    with pytest.raises(ConfigError):
        Trace(events=[TraceEvent(at=5.0), TraceEvent(at=1.0, round_id=1)], horizon=10.0).validate()
    with pytest.raises(ConfigError):
        Trace(events=[TraceEvent(at=5.0, round_id=3)], horizon=10.0).validate()
    with pytest.raises(ConfigError):
        Trace(events=[TraceEvent(at=50.0)], horizon=10.0).validate()


def test_generator_parameter_validation():
    with pytest.raises(ConfigError):
        poisson_trace(0, 100.0)
    with pytest.raises(ConfigError):
        diurnal_trace(5, 100.0, amplitude=1.0)
    with pytest.raises(ConfigError):
        mmpp_trace(10, 5, 100.0)  # burst must exceed calm


# ------------------------------------------------------------------- loaders
def test_csv_trace_loads_with_and_without_header(tmp_path):
    path = tmp_path / "arrivals.csv"
    path.write_text("at,tenant\n1.5,0\n0.5,1\n2.5,0\n")
    trace = load_trace(str(path))
    trace.validate()
    assert [(ev.at, ev.tenant) for ev in trace] == [(0.5, 1), (1.5, 0), (2.5, 0)]
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0\n2.0\n")
    assert len(load_trace(str(bare))) == 2


def test_jsonl_round_trip(tmp_path):
    original = mmpp_trace(4, 25, 200.0, seed=13)
    path = str(tmp_path / "trace.jsonl")
    save_trace(original, path)
    loaded = load_trace(path, horizon=original.horizon)
    assert loaded.events == original.events


def test_loader_rejects_bad_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_trace(str(empty))
    bad = tmp_path / "trace.xml"
    bad.write_text("<trace/>")
    with pytest.raises(ConfigError):
        load_trace(str(bad))
    nojson = tmp_path / "bad.jsonl"
    nojson.write_text("{not json\n")
    with pytest.raises(ConfigError):
        load_trace(str(nojson))


# ------------------------------------------------------------- availability
def test_availability_trace_deterministic_and_bounded():
    a = availability_trace(20, 500.0, seed=3)
    b = availability_trace(20, 500.0, seed=3)
    assert a.windows == b.windows
    assert len(a.windows) == 20
    for spans in a.windows.values():
        for start, end in spans:
            assert 0.0 <= start < end <= 500.0
        starts = [s for s, _ in spans]
        assert starts == sorted(starts)


def test_availability_queries_are_consistent():
    trace = availability_trace(50, 400.0, seed=7)
    for at in (0.0, 37.5, 100.0, 250.0, 399.0, 1e9):
        up = trace.available(at)
        assert up == [cid for cid in trace.client_ids if trace.is_available(cid, at)]
        assert trace.availability_fraction(at) == len(up) / len(trace.windows)


def test_availability_sample_is_seeded_and_capped():
    trace = availability_trace(50, 400.0, seed=7)
    rng_a, rng_b = make_rng(1, "s"), make_rng(1, "s")
    assert trace.sample(100.0, 5, rng_a) == trace.sample(100.0, 5, rng_b)
    picked = trace.sample(100.0, 5, make_rng(2, "s"))
    assert len(picked) <= 5
    assert all(trace.is_available(cid, 100.0) for cid in picked)
    # asking for more than are up returns everyone who is up
    up = trace.available(100.0)
    assert trace.sample(100.0, len(up) + 10, make_rng(3, "s")) == up


def test_day_night_amplitude_modulates_participation():
    period = 400.0
    trace = availability_trace(
        200, 2000.0, seed=11, mean_session=60.0, mean_gap=60.0,
        day_night_amplitude=0.9, period=period,
    )
    # "day" (sin > 0) stretches gaps -> fewer clients up than at "night"
    day = np.mean([trace.availability_fraction(t) for t in (100.0, 500.0, 900.0)])
    night = np.mean([trace.availability_fraction(t) for t in (300.0, 700.0, 1100.0)])
    assert night > day


# ------------------------------------------------------------------- digest
def test_digest_quantiles_track_numpy_within_bucket_error():
    rng = make_rng(5, "lat")
    samples = rng.lognormal(mean=1.0, sigma=0.8, size=20_000)
    digest = LatencyDigest()
    for x in samples:
        digest.add(float(x))
    for q in (0.5, 0.95, 0.99):
        exact = float(np.quantile(samples, q))
        assert digest.quantile(q) == pytest.approx(exact, rel=0.05)
    assert digest.count == len(samples)
    assert digest.mean == pytest.approx(float(samples.mean()), rel=1e-9)


def test_digest_edge_cases():
    digest = LatencyDigest()
    assert digest.quantile(0.5) == 0.0  # empty
    digest.add(0.0)  # below lo clamps into the first bucket
    digest.add(1e9)  # above hi lands in overflow
    assert digest.quantile(0.01) >= 0.0
    assert digest.quantile(1.0) == 1e9  # overflow reports observed max
    with pytest.raises(ConfigError):
        digest.add(-1.0)
    with pytest.raises(ConfigError):
        digest.quantile(1.5)
    with pytest.raises(ConfigError):
        LatencyDigest(lo=0.0)


def test_digest_single_sample_reports_itself():
    digest = LatencyDigest()
    digest.add(2.5)
    # midpoint clamped to [min, max] -> exact for one sample
    assert digest.quantile(0.5) == pytest.approx(2.5)


# ------------------------------------------------------------------ tracker
def test_slo_tracker_attainment_counts_all_offered_rounds():
    tracker = SloTracker(slo_target_s=10.0)
    assert tracker.observe(1.0, 2.0) is True  # 3s <= 10s
    assert tracker.observe(8.0, 4.0) is False  # 12s > 10s
    tracker.abort()
    tracker.reject()
    assert tracker.rounds_total == 4
    assert tracker.attainment == pytest.approx(0.25)
    row = tracker.report()
    assert row["rounds"] == 4
    assert row["completed"] == 2
    assert row["aborted"] == 1
    assert row["rejected"] == 1
    assert row["slo_attainment"] == pytest.approx(0.25)
    assert row["latency_p50_s"] > 0
    assert row["queue_wait_mean_s"] == pytest.approx(4.5)
    assert row["service_mean_s"] == pytest.approx(3.0)


def test_slo_tracker_rejects_bad_target():
    with pytest.raises(ConfigError):
        SloTracker(slo_target_s=0.0)
