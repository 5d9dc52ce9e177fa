"""Property tests for chaos rounds (hypothesis-style seeded sweep).

For *random* fault plans — crashes, dropout waves, NIC degradation,
partitions, stragglers, in any combination — a round must either complete
with at least the quorum aggregated or raise a typed ``RoundAbort``.  It
must never hang (a hang surfaces as the engine's deadlock
``SimulationError``, which this test would report as a failure) and never
double-count: the weight the top aggregator emits equals the number of
client updates actually folded in, crash-restarts notwithstanding.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, random_fault_plan
from repro.common.errors import RoundAbort
from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.workloads.arrival import concurrent_arrivals

N_NODES = 8
BATCH = 24
QUORUM_FRACTION = 0.5


def _run_chaos_round(plan_seed: int, reactive: bool) -> tuple:
    overrides = {}
    if reactive:
        # exercise the create-on-delivery path too: leaves whose whole
        # input died must still be force-created to emit
        overrides.update(prewarm=False, reuse=False)
    cfg = PlatformConfig.lifl(**overrides)
    nodes = [f"node{i:02d}" for i in range(N_NODES)]
    platform = AggregationPlatform(cfg, node_names=nodes)
    arrivals = [
        (t, 1.0)
        for t in concurrent_arrivals(BATCH, jitter=3.0, rng=make_rng(plan_seed, "parr"))
    ]
    plan = random_fault_plan(
        make_rng(plan_seed, "pplan"),
        nodes,
        horizon=25.0,
        seed=plan_seed,
        quorum_fraction=QUORUM_FRACTION,
        heartbeat_timeout=3.0,
        sweep_interval=0.75,
    )
    injector = FaultInjector(plan)
    result = platform.run_round(
        arrivals,
        RESNET152_BYTES,
        include_eval=False,
        record_timeline=False,
        injector=injector,
    )
    return result, injector


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_fault_plans_complete_at_quorum_or_abort_typed(plan_seed, reactive):
    quorum = math.ceil(QUORUM_FRACTION * BATCH)
    try:
        result, injector = _run_chaos_round(plan_seed, reactive)
    except RoundAbort as abort:
        # the typed failure path: quorum arithmetic must be honest
        assert abort.total == BATCH
        assert abort.quorum == quorum
        assert abort.survivors < quorum
        return
    # the success path: quorum met, nothing double-counted
    assert result.updates_aggregated >= quorum
    assert result.updates_aggregated <= BATCH
    assert result.updates_aggregated == BATCH - result.clients_dropped
    # §3 no-double-count invariant under restarts/partitions/rate changes:
    # every aggregated update contributes its weight exactly once
    assert result.total_weight == float(result.updates_aggregated)
    assert result.aggregator_restarts == injector.report.crashes_injected
