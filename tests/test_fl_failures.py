"""Failure handling (§3): keep-alive heartbeats and client dropouts."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.failures import HeartbeatMonitor, apply_dropouts
from repro.fl.model import model_spec
from repro.fl.selector import Selector, SelectorConfig
from repro.workloads.fedscale import MOBILE_PROFILE, make_population
from repro.workloads.arrival import generate_round_trace


def test_heartbeat_lifecycle():
    hb = HeartbeatMonitor(timeout=10.0)
    hb.beat("c1", now=0.0)
    hb.beat("c2", now=0.0)
    assert hb.is_alive("c1", now=5.0)
    assert not hb.is_alive("c1", now=11.0)
    assert hb.sweep(now=11.0) == ["c1", "c2"]
    assert hb.sweep(now=12.0) == []  # only fresh failures reported
    hb.beat("c1", now=12.0)  # recovery
    assert hb.is_alive("c1", now=13.0)
    assert hb.failed == {"c2"}


def test_heartbeat_unknown_client_not_alive():
    hb = HeartbeatMonitor()
    assert not hb.is_alive("ghost", now=0.0)
    assert hb.last_seen("ghost") is None
    with pytest.raises(ConfigError):
        HeartbeatMonitor(timeout=0.0)


def test_heartbeat_declared_failed_dominates_is_alive():
    """Edge surfaced by wiring the monitor into chaos rounds: once sweep
    declares a client failed, is_alive must say dead even for a query
    timestamp inside the original beat window — recovery happens only
    through a fresh beat."""
    hb = HeartbeatMonitor(timeout=10.0)
    hb.beat("c1", now=0.0)
    assert hb.sweep(now=11.0) == ["c1"]
    # out-of-order (or replayed) query inside the old window: still dead
    assert not hb.is_alive("c1", now=5.0)
    assert not hb.is_alive("c1", now=11.0)
    # only a fresh keep-alive revives the client
    hb.beat("c1", now=12.0)
    assert hb.is_alive("c1", now=13.0)
    assert hb.failed == set()
    # and a later silence re-declares it (fresh failure reported again)
    assert hb.sweep(now=30.0) == ["c1"]


def test_dropouts_of_already_empty_round():
    """Edge surfaced by mid-round dropout waves: a wave can hit a round
    whose arrivals were all consumed/dropped already.  It must no-op and
    leave the RNG stream untouched."""
    rng = make_rng(3, "empty")
    from repro.workloads.arrival import RoundTrace

    empty = RoundTrace(arrivals=[])
    state_before = rng.bit_generator.state
    survived, dropped = apply_dropouts(empty, dropout_rate=0.5, rng=rng)
    assert len(survived) == 0 and dropped == []
    assert rng.bit_generator.state == state_before


def test_dropouts_preserve_goal_with_over_provisioning():
    """§3's resilience claim: with 2x over-provisioning, a 30% dropout
    round still meets the aggregation goal."""
    rng = make_rng(9, "dropout")
    spec = model_spec("resnet18")
    pop = make_population(400, spec, MOBILE_PROFILE, seed=1)
    goal = 50
    selector = Selector(SelectorConfig(aggregation_goal=goal, over_provision=2.0))
    participants = selector.select(pop.clients, rng)
    trace = generate_round_trace(participants, pop.weights(), rng)
    survived, dropped = apply_dropouts(trace, dropout_rate=0.3, rng=rng)
    assert len(dropped) > 0
    assert len(survived) >= goal  # goal still reachable
    assert survived.time_to_goal(goal) > 0


def test_dropouts_zero_rate_identity():
    rng = make_rng(10, "d0")
    spec = model_spec("resnet18")
    pop = make_population(20, spec, MOBILE_PROFILE, seed=2)
    trace = generate_round_trace(pop.clients, pop.weights(), rng)
    survived, dropped = apply_dropouts(trace, 0.0, rng)
    assert len(survived) == len(trace) and not dropped
    with pytest.raises(ConfigError):
        apply_dropouts(trace, 1.0, rng)
