"""Conformance properties every registered policy must satisfy.

The suite introspects the live registry (``POLICIES.names(family)``), so
any policy registered anywhere — the built-ins, and the runnable
``examples/custom_policy.py`` policy which is imported below — is held
to the same contract:

* **selection** returns a duplicate-free subset of the clients eligible
  at the round's arrival instant, with matching weights, and is a pure
  function of its injected RNG;
* **placement** covers every arrival exactly once, the plan's leaves
  partition the placed updates per node, and a ``nodes=`` restriction is
  honoured;
* **admission** never grows a queue past its bound and never starves a
  tenant while the queue has room;
* **recovery** never leaves a round hung — below quorum it must abort,
  and every end-to-end chaos replay drives each round to a terminal
  outcome (complete, shrink to completion, or typed abort).
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.policies import (
    ADMISSION_DECISIONS,
    POLICIES,
    AdmissionContext,
    RecoveryContext,
    SelectionContext,
)
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.telemetry.bus import RecordingSubscriber, TelemetryBus
from repro.traces.models import availability_trace, poisson_trace
from repro.traces.replay import ChaosCorrelation, ReplayConfig, TraceReplayEngine
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

# Pull in the docs example so its custom policy faces the same bar as the
# built-ins (guarded: pytest may import this module more than once, and
# the registry refuses duplicates).
_EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
if "freshest-first" not in POLICIES.names("selection"):
    _spec = importlib.util.spec_from_file_location("custom_policy_example", _EXAMPLE)
    _mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_mod)

HORIZON = 120.0
N_CLIENTS = 32
NODES = [f"node{i}" for i in range(4)]

_AVAIL = availability_trace(
    N_CLIENTS, HORIZON, seed=5, mean_session=60.0, mean_gap=40.0,
    prefix=MOBILE_PROFILE.name,
)
_FEDSCALE = make_population(N_CLIENTS, profile=MOBILE_PROFILE, seed=5)
_POPULATION = ClientPopulation.generate(
    N_CLIENTS, seed=5, horizon=HORIZON, mean_session=60.0, mean_gap=40.0
)
_SELECTOR = Selector(SelectorConfig(aggregation_goal=6, over_provision=1.25))


def _ctx(at: float) -> SelectionContext:
    """A context rich enough for every selection policy: trace-backed
    clients for the id-returning ones, a SoA population for the
    index-returning one."""
    return SelectionContext(
        at=at,
        tenant=0,
        round_id=0,
        round_updates=6,
        availability=_AVAIL,
        weights=_FEDSCALE.weights(),
        selector=_SELECTOR,
        clients=_FEDSCALE.clients,
        population=_POPULATION,
    )


# ================================================================= selection
@pytest.mark.parametrize("name", POLICIES.names("selection"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20), at=st.floats(0.0, HORIZON - 1e-6))
def test_selection_returns_valid_unique_subset(name: str, seed: int, at: float):
    pol = POLICIES.create("selection", name)
    ctx = _ctx(at)
    picked = pol.select(ctx, make_rng(seed, "conformance"))
    picked_list = [int(p) for p in picked] if isinstance(picked, np.ndarray) else list(picked)
    assert len(set(picked_list)) == len(picked_list), "duplicate participants"
    if isinstance(picked, np.ndarray):
        # Index-returning (population-backed) policy: every index must be
        # in range and available at the arrival instant.
        mask = _POPULATION.available_mask(at)
        assert all(0 <= i < _POPULATION.size for i in picked_list)
        assert all(mask[i] for i in picked_list), "picked an offline client"
    else:
        eligible = set(_AVAIL.available(at)) | {
            f"synth-{i}" for i in range(ctx.round_updates)
        }
        assert set(picked_list) <= eligible, "picked an ineligible client"
    weights = pol.participant_weights(ctx, picked)
    assert len(weights) == len(picked_list)
    assert all(float(w) > 0 for w in weights)


@pytest.mark.parametrize("name", POLICIES.names("selection"))
def test_selection_is_a_pure_function_of_its_rng(name: str):
    pol = POLICIES.create("selection", name)
    for at in (3.0, 47.0, 101.0):
        first = pol.select(_ctx(at), make_rng(99, "conformance"))
        second = pol.select(_ctx(at), make_rng(99, "conformance"))
        assert list(np.asarray(first)) == list(np.asarray(second)), (
            f"{name} is not deterministic under a fixed RNG stream"
        )


# ================================================================= placement
_ARRIVALS = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 5.0)),
    min_size=1,
    max_size=16,
)


@pytest.mark.parametrize("name", POLICIES.names("placement"))
@settings(max_examples=20, deadline=None)
@given(arrivals=_ARRIVALS, restrict=st.integers(1, len(NODES)))
def test_placement_covers_arrivals_and_respects_nodes(
    name: str, arrivals: list, restrict: int
):
    platform = AggregationPlatform(
        PlatformConfig.lifl(placement_policy=name), node_names=NODES
    )
    allowed = NODES[:restrict]
    updates, plan = platform.prepare_round(arrivals, nbytes=1e6, nodes=allowed)
    # Exactly-once coverage, in deterministic arrival order.
    assert len(updates) == len(arrivals)
    assert sorted(u.uid for u in updates) == list(range(len(arrivals)))
    assert [u.arrival_time for u in updates] == sorted(t for t, _ in arrivals)
    # Node restriction honoured.
    assert {u.node for u in updates} <= set(allowed)
    # The plan's leaves partition the placed updates node by node.
    plan.validate()
    from repro.controlplane.hierarchy import Role

    leaf_fan_in: dict[str, int] = {}
    for leaf in plan.by_role(Role.LEAF):
        leaf_fan_in[leaf.node] = leaf_fan_in.get(leaf.node, 0) + leaf.fan_in
    placed: dict[str, int] = {}
    for u in updates:
        placed[u.node] = placed.get(u.node, 0) + 1
    assert leaf_fan_in == placed, "plan leaves do not partition the updates"


# ------------------------------------------------- region-restricted placement
_REGION_NODES = {
    "us": ("us-n0", "us-n1", "us-n2"),
    "eu": ("eu-n0", "eu-n1"),
    "ap": ("ap-n0", "ap-n1"),
}
_ALL_REGION_NODES = [n for nodes in _REGION_NODES.values() for n in nodes]


@pytest.mark.parametrize("name", POLICIES.names("placement"))
@settings(max_examples=20, deadline=None)
@given(
    arrivals=_ARRIVALS,
    home=st.sampled_from(sorted(_REGION_NODES)),
    partitioned_home=st.booleans(),
)
def test_placement_respects_region_restricted_node_sets(
    name: str, arrivals: list, home: str, partitioned_home: bool
):
    """Every registered placement policy against the node sets the geo
    federation hands it: the home region's nodes, or — while the home is
    partitioned — the fallback's.  A policy must never place an update
    in a partitioned region even though the platform knows every node."""
    from repro.geo import placement_nodes

    fallback = {"us": "eu", "eu": "ap", "ap": "us"}[home]
    partitioned = {home} if partitioned_home else set()
    allowed = placement_nodes(_REGION_NODES, home, fallback, partitioned)
    assert set(allowed) == set(
        _REGION_NODES[fallback if partitioned_home else home]
    )
    platform = AggregationPlatform(
        PlatformConfig.lifl(placement_policy=name), node_names=_ALL_REGION_NODES
    )
    updates, plan = platform.prepare_round(arrivals, nbytes=1e6, nodes=list(allowed))
    assert len(updates) == len(arrivals)
    used = {u.node for u in updates}
    assert used <= set(allowed), f"{name} escaped the region restriction"
    for region, nodes in _REGION_NODES.items():
        if region in partitioned:
            assert not used & set(nodes), f"{name} placed in a partitioned region"
    plan.validate()


def test_placement_nodes_refuses_dead_ends():
    """The federation's restriction helper fails loudly rather than
    handing a policy an empty or unsafe node set."""
    from repro.common.errors import ConfigError
    from repro.geo import placement_nodes

    with pytest.raises(ConfigError, match="no fallback"):
        placement_nodes(_REGION_NODES, "eu", "", {"eu"})
    with pytest.raises(ConfigError, match="partitioned too"):
        placement_nodes(_REGION_NODES, "eu", "ap", {"eu", "ap"})


# ================================================================= admission
@pytest.mark.parametrize("name", POLICIES.names("admission"))
@settings(max_examples=30, deadline=None)
@given(
    queue_limit=st.integers(0, 6),
    fill=st.floats(0.0, 1.0),
    deadline=st.sampled_from([0.0, 8.0]),
    now=st.floats(0.0, 500.0),
)
def test_admission_respects_bounds_and_never_starves(
    name: str, queue_limit: int, fill: float, deadline: float, now: float
):
    queue_len = min(queue_limit, int(fill * (queue_limit + 1)))
    pol = POLICIES.create("admission", name)
    decision = pol.decide(
        AdmissionContext(
            tenant=0,
            queue_len=queue_len,
            queue_limit=queue_limit,
            now=now,
            defer_deadline_s=deadline,
        )
    )
    assert decision in ADMISSION_DECISIONS
    if queue_len >= queue_limit:
        assert decision != "enqueue", "would grow the queue past its bound"
    else:
        assert decision == "enqueue", (
            "starved the tenant: room in the queue but the arrival was "
            f"{decision}ed"
        )


@pytest.mark.parametrize(
    ("name", "queue_limit"),
    [
        pytest.param(name, limit, id=name if limit else f"{name}-zero-queue")
        for name in POLICIES.names("admission")
        for limit in (2, 0)
    ],
)
def test_admission_end_to_end_conserves_every_arrival(name: str, queue_limit: int):
    """Under heavy overload every arrival still reaches exactly one
    terminal outcome, and no queue ever holds more waiters than its
    bound — a zero-length queue included, where a head drop has no
    waiter to evict."""
    trace = poisson_trace(40.0, 90.0, seed=2)
    bus = TelemetryBus()
    stream = RecordingSubscriber(bus)
    replay = TraceReplayEngine(
        AggregationPlatform(PlatformConfig.lifl(), node_names=NODES),
        trace,
        ReplayConfig(
            round_updates=4,
            max_inflight=1,
            queue_limit=queue_limit,
            slo_target_s=10.0,
            admission_policy=name,
            defer_deadline_s=5.0,
        ),
        seed=2,
        telemetry=bus,
    )
    result = replay.run()
    assert result.row()["rounds"] == len(trace.events) > 0
    assert len(result.records) == len(trace.events)
    for rec in result.records:
        settled = rec.complete_at >= 0 and not rec.aborted
        outcomes = (settled, rec.rejected, rec.aborted, rec.shed)
        assert sum(outcomes) == 1, (rec.tenant, rec.round_id, outcomes)
        # the lifecycle's terminal state names that same outcome
        terminal = ("settled", "rejected", "aborted", "shed")
        assert outcomes == tuple(rec.state == s for s in terminal), rec.state
    depths = [r.get("depth") for r in stream.records if r.kind == "queue-sample"]
    assert depths and max(depths) <= queue_limit


# ================================================================== recovery
@pytest.mark.parametrize("name", POLICIES.names("recovery"))
@settings(max_examples=30, deadline=None)
@given(total=st.integers(1, 64), data=st.data())
def test_recovery_always_terminates_below_quorum(name: str, total: int, data):
    quorum = data.draw(st.integers(1, total))
    survivors = data.draw(st.integers(0, total))
    pol = POLICIES.create("recovery", name)
    verdict = pol.on_client_failed(
        RecoveryContext(
            client_id="c0", survivors=survivors, quorum=quorum, total=total
        )
    )
    assert verdict in ("shrink", "abort"), f"unknown recovery verdict {verdict!r}"
    if survivors < quorum:
        # A round that can no longer cover its quorum must abort — a
        # policy that keeps shrinking forever would hang the round.
        assert pol.should_abort(survivors, quorum, total), (
            "below-quorum round left hanging"
        )


@pytest.mark.parametrize("name", POLICIES.names("recovery"))
def test_recovery_end_to_end_never_hangs_a_round(name: str):
    """Serve through aggressive correlated dropout waves: every round
    must end — completed (possibly goal-shrunk) or typed abort."""
    avail = availability_trace(
        24, 120.0, seed=7, mean_session=50.0, mean_gap=60.0,
        day_night_amplitude=0.8, period=60.0,
    )
    replay = TraceReplayEngine(
        AggregationPlatform(PlatformConfig.lifl(), node_names=NODES),
        poisson_trace(15.0, 120.0, seed=7),
        ReplayConfig(
            round_updates=6, max_inflight=2, queue_limit=4, slo_target_s=15.0
        ),
        availability=avail,
        chaos=ChaosCorrelation(
            dip_threshold=0.9,
            max_fraction=1.0,
            wave_delay_s=0.25,
            quorum_fraction=0.6,
            recovery_policy=name,
        ),
        seed=7,
    )
    row = replay.run().row()
    assert row["chaos_waves"] > 0, "chaos never engaged — test is vacuous"
    assert row["completed"] + row["rejected"] + row["aborted"] == row["rounds"] > 0
    if name == "abort-fast":
        assert row["aborted"] > 0
