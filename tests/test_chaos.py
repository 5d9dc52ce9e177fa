"""The fault-injection subsystem: plans, injector, recovery, multi-tenancy."""

from __future__ import annotations

import pytest

from repro.chaos import (
    AggregatorCrash,
    DropoutWave,
    FaultInjector,
    FaultPlan,
    NicDegrade,
    PartitionWindow,
    SlowNode,
    random_fault_plan,
)
from repro.common.errors import ChaosError, RoundAbort
from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.core.aggregator import AggregatorCosts, AggregatorInstance, InstanceState
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.sim.engine import Environment
from repro.sim.resources import Store
from repro.workloads.arrival import concurrent_arrivals


def _platform(n_nodes: int = 10, **overrides) -> AggregationPlatform:
    cfg = PlatformConfig.lifl(**overrides)
    return AggregationPlatform(cfg, node_names=[f"node{i:02d}" for i in range(n_nodes)])


def _arrivals(n: int, seed: int = 1) -> list[tuple[float, float]]:
    return [
        (t, 1.0)
        for t in concurrent_arrivals(n, jitter=3.0, rng=make_rng(seed, "chaos-test"))
    ]


# ---- FaultPlan validation --------------------------------------------------

def test_plan_validation_rejects_bad_events():
    with pytest.raises(ChaosError, match="fraction"):
        FaultPlan(dropouts=(DropoutWave(at=1.0, fraction=1.5),)).validate()
    with pytest.raises(ChaosError, match="count"):
        FaultPlan(crashes=(AggregatorCrash(at=1.0, count=0),)).validate()
    with pytest.raises(ChaosError, match="end > start"):
        FaultPlan(
            partitions=(PartitionWindow(nodes=("n0",), start=2.0, end=2.0),)
        ).validate()
    with pytest.raises(ChaosError, match="must end"):
        FaultPlan(
            partitions=(PartitionWindow(nodes=("n0",), start=2.0, end=float("inf")),)
        ).validate()
    with pytest.raises(ChaosError, match="slowdown"):
        FaultPlan(slow_nodes=(SlowNode(node="n0", start=0.0, end=1.0, slowdown=1.0),)).validate()
    with pytest.raises(ChaosError, match="quorum_fraction"):
        FaultPlan(quorum_fraction=0.0).validate()


def test_plan_validation_rejects_overlapping_rate_windows():
    plan = FaultPlan(
        nic_degradations=(NicDegrade(node="n0", start=0.0, end=5.0, factor=0.5),),
        slow_nodes=(SlowNode(node="n0", start=3.0, end=8.0, slowdown=2.0),),
    )
    with pytest.raises(ChaosError, match="overlapping rate windows"):
        plan.validate()
    # disjoint windows on one node, and overlapping windows on different
    # nodes, are both fine
    FaultPlan(
        nic_degradations=(NicDegrade(node="n0", start=0.0, end=3.0, factor=0.5),),
        slow_nodes=(SlowNode(node="n1", start=1.0, end=8.0, slowdown=2.0),),
    ).validate()


def test_random_fault_plans_always_validate():
    names = [f"node{i:02d}" for i in range(6)]
    for seed in range(30):
        plan = random_fault_plan(make_rng(seed, "plans"), names, horizon=30.0, seed=seed)
        plan.validate()  # must not raise
        assert not plan.is_empty


# ---- injector wiring -------------------------------------------------------

@pytest.mark.parametrize("preset", ["lifl", "sl_h"])
def test_crash_plan_restarts_on_every_platform_preset(preset):
    """Every platform's lifecycle stage restarts crashed aggregators: a
    crash plan on a plain preset config completes with full weight."""
    cfg = getattr(PlatformConfig, preset)()
    platform = AggregationPlatform(cfg, node_names=["node00", "node01"])
    plan = FaultPlan(crashes=(AggregatorCrash(at=1.0),))
    injector = FaultInjector(plan)
    result = platform.run_round(
        _arrivals(8), RESNET152_BYTES, include_eval=False, injector=injector,
    )
    assert injector.report.crashes_injected == 1
    assert result.aggregator_restarts == 1
    assert result.updates_aggregated == 8
    assert result.total_weight == 8.0


def test_unknown_fault_targets_rejected():
    platform = _platform(2)
    plan = FaultPlan(nic_degradations=(NicDegrade(node="ghost", start=0.0, end=1.0, factor=0.5),))
    with pytest.raises(ChaosError, match="unknown node"):
        platform.run_round(
            _arrivals(8), RESNET152_BYTES, include_eval=False,
            injector=FaultInjector(plan),
        )
    plan2 = FaultPlan(dropouts=(DropoutWave(at=1.0, fraction=0.5, tenant=3),))
    with pytest.raises(ChaosError, match="tenant"):
        platform.run_round(
            _arrivals(8), RESNET152_BYTES, include_eval=False,
            injector=FaultInjector(plan2),
        )


def test_empty_plan_injector_changes_nothing():
    """Recovery processes alone (no faults) must not disturb the round."""
    platform = _platform()
    baseline = platform.run_round(_arrivals(40), RESNET152_BYTES, include_eval=False)
    platform2 = _platform()
    chaos = platform2.run_round(
        _arrivals(40), RESNET152_BYTES, include_eval=False,
        injector=FaultInjector(FaultPlan()),
    )
    assert chaos.act == baseline.act
    assert chaos.updates_aggregated == baseline.updates_aggregated == 40
    assert chaos.clients_dropped == 0 and chaos.aggregator_restarts == 0


# ---- dropout recovery (HeartbeatMonitor wired into the round) --------------

def test_dropout_round_completes_at_quorum_with_heartbeat_detection():
    platform = _platform()
    plan = FaultPlan(
        seed=5, quorum_fraction=0.5, heartbeat_timeout=2.0, sweep_interval=0.5,
        dropouts=(DropoutWave(at=1.5, fraction=0.3),),
    )
    injector = FaultInjector(plan)
    result = platform.run_round(
        _arrivals(60), RESNET152_BYTES, include_eval=False, injector=injector,
    )
    assert result.clients_dropped > 0
    assert result.updates_aggregated == 60 - result.clients_dropped
    assert result.updates_aggregated >= 30  # quorum
    # the § 3 no-double-count invariant: emitted weight covers exactly the
    # aggregated updates (all weights are 1.0 here)
    assert result.total_weight == result.updates_aggregated
    # keep-alive detection found every dropped client, and only those
    assert injector.report.clients_declared_failed == result.clients_dropped
    # goal_reductions counts goals actually shrunk (a declared client whose
    # leaf already finished reduces nothing)
    assert 0 < injector.report.goal_reductions <= result.clients_dropped


def test_dropout_beyond_quorum_aborts_typed():
    platform = _platform()
    plan = FaultPlan(
        seed=5, quorum_fraction=0.9, heartbeat_timeout=1.0, sweep_interval=0.5,
        dropouts=(DropoutWave(at=0.5, fraction=0.9),),
    )
    with pytest.raises(RoundAbort) as exc:
        platform.run_round(
            _arrivals(40), RESNET152_BYTES, include_eval=False,
            injector=FaultInjector(plan),
        )
    assert exc.value.survivors < exc.value.quorum <= exc.value.total == 40


# ---- crash / stateless restart ---------------------------------------------

def test_crash_restart_preserves_aggregate_weight():
    platform = _platform()
    plan = FaultPlan(seed=9, crashes=(AggregatorCrash(at=3.0, count=3),))
    injector = FaultInjector(plan)
    result = platform.run_round(
        _arrivals(50), RESNET152_BYTES, include_eval=False, injector=injector,
    )
    assert injector.report.crashes_injected == 3
    assert result.aggregator_restarts == 3
    # stateless restart re-reads every consumed input: nothing lost,
    # nothing double-counted
    assert result.updates_aggregated == 50
    assert result.total_weight == 50.0


def test_crash_top_aggregator_still_completes():
    platform = _platform(4)
    plan = FaultPlan(seed=2, crashes=(AggregatorCrash(at=4.0, role="top"),))
    result = platform.run_round(
        _arrivals(30), RESNET152_BYTES, include_eval=False,
        injector=FaultInjector(plan),
    )
    assert result.aggregator_restarts == 1
    assert result.total_weight == 30.0


def test_crash_and_dropout_compose():
    platform = _platform()
    plan = FaultPlan(
        seed=4, quorum_fraction=0.5, heartbeat_timeout=2.0, sweep_interval=0.5,
        crashes=(AggregatorCrash(at=3.0, count=2),),
        dropouts=(DropoutWave(at=1.0, fraction=0.25),),
    )
    result = platform.run_round(
        _arrivals(60), RESNET152_BYTES, include_eval=False,
        injector=FaultInjector(plan),
    )
    assert result.total_weight == result.updates_aggregated
    assert result.updates_aggregated == 60 - result.clients_dropped
    assert result.aggregator_restarts == 2


# ---- instance-level chaos hooks --------------------------------------------

def _instance(env: Environment, fan_in: int = 2, startup: float = 0.0):
    outputs: list[float] = []
    inst = AggregatorInstance(
        env=env,
        agg_id="leaf0",
        node="node0",
        role="leaf",
        fan_in=fan_in,
        costs=AggregatorCosts(0.0, 0.0, 0.1, 0.0, startup, 0.0),
        eager=True,
        charge_cpu=lambda comp, s: None,
        on_output=lambda inst, weight, now: outputs.append(weight),
        record=None,
    )
    return inst, outputs


def test_reduce_goal_to_zero_emits_empty_intermediate():
    from repro.core.updates import MailboxItem

    env = Environment()
    inst, outputs = _instance(env, fan_in=2)
    inst.ensure_created(reused=True)
    inst.deliver(MailboxItem(1.0, "c0", False, 0.0))
    env.run(until=1.0)
    assert not outputs  # one of two received; still waiting
    inst.reduce_goal(2)  # both remaining clients declared dead
    env.run(until=2.0)
    assert outputs == [1.0]  # emits with what it has
    assert inst.state is InstanceState.FINISHED
    # reducing a finished instance is a no-op
    inst.reduce_goal(1)
    assert inst.fan_in == 0


def test_restart_replays_consumed_inputs():
    from repro.core.updates import MailboxItem

    env = Environment()
    inst, outputs = _instance(env, fan_in=3)
    inst.retain_inputs = True
    inst.ensure_created(reused=True)
    inst.deliver(MailboxItem(2.0, "c0", False, 0.0))
    inst.deliver(MailboxItem(3.0, "c1", False, 0.0))
    env.run(until=1.0)
    assert inst.stats.updates_aggregated == 2
    inst.restart(0.5, reused=False)
    inst.deliver(MailboxItem(5.0, "c2", False, 0.0))
    env.run()
    # all three weights present exactly once despite the mid-round restart
    assert outputs == [10.0]
    assert inst.stats.restarts == 1
    assert inst.stats.updates_aggregated == 3


def test_restart_reclaims_same_instant_in_flight_delivery():
    """Race regression: a deposit that succeeded the parked getter in the
    same instant as the crash must be reclaimed, not consumed by the dead
    incarnation (which would lose the update and wedge the round)."""
    from repro.core.updates import MailboxItem

    env = Environment()
    inst, outputs = _instance(env, fan_in=2)
    inst.retain_inputs = True
    inst.ensure_created(reused=True)
    env.run(until=1.0)  # consumer parks on the empty mailbox
    inst.deliver(MailboxItem(4.0, "c0", False, env.now))  # in-flight resume
    inst.restart(0.0, reused=True)  # same-instant crash+restart
    inst.deliver(MailboxItem(6.0, "c1", False, env.now))
    env.run()
    assert outputs == [10.0]  # both weights, exactly once
    assert inst.stats.updates_aggregated == 2
    assert inst.stats.restarts == 1


def test_crash_with_pending_agg_timeout_cannot_resume_dead_incarnation():
    """The kill is synchronous: an Agg-step timeout still pending at crash
    time must not step the dead generator later (it would corrupt the
    reset accumulator and double-aggregate the in-progress item)."""
    from repro.core.updates import MailboxItem

    env = Environment()
    inst, outputs = _instance(env, fan_in=2)  # agg_latency 0.1
    inst.retain_inputs = True
    inst.ensure_created(reused=True)
    inst.deliver(MailboxItem(2.0, "c0", False, 0.0))
    inst.deliver(MailboxItem(3.0, "c1", False, 0.0))

    def mid_agg_restart(_event) -> None:
        inst.restart(0.0, reused=True)

    # fires at t=0.05, halfway through the first item's Agg-step timeout —
    # the old incarnation is parked on a timer that outlives the crash
    env.timeout(0.05).callbacks.append(mid_agg_restart)
    env.run()
    assert outputs == [5.0]
    assert inst.stats.updates_aggregated == 2
    assert inst.stats.restarts == 1


def test_abort_restocks_warm_pool():
    """An aborted round's pods are reclaimed like any other round's: the
    warm pool must not leak the slots the round consumed."""
    platform = _platform()
    platform.run_round(_arrivals(40), RESNET152_BYTES, include_eval=False)
    pool_before = platform.engine.lifecycle.warm.total()
    assert pool_before > 0
    plan = FaultPlan(
        seed=5, quorum_fraction=0.95, heartbeat_timeout=1.0, sweep_interval=0.5,
        dropouts=(DropoutWave(at=0.5, fraction=0.9),),
    )
    with pytest.raises(RoundAbort):
        platform.run_round(
            _arrivals(40), RESNET152_BYTES, include_eval=False,
            injector=FaultInjector(plan),
        )
    assert platform.engine.lifecycle.warm.total() >= pool_before


def test_reactive_abort_does_not_stock_phantom_warm_pods():
    """A reactive (create-on-delivery) round that aborts early must only
    reclaim the instances that actually came up — never the full plan."""
    plan = FaultPlan(
        seed=5, quorum_fraction=0.95, heartbeat_timeout=0.5, sweep_interval=0.25,
        dropouts=(DropoutWave(at=0.1, fraction=0.95),),
    )
    pools = {}
    for prewarm in (True, False):
        platform = _platform(prewarm=prewarm)
        with pytest.raises(RoundAbort):
            platform.run_round(
                _arrivals(40), RESNET152_BYTES, include_eval=False,
                injector=FaultInjector(plan),
            )
        pools[prewarm] = platform.engine.lifecycle.warm.total()
    # prewarm created the whole plan, the reactive round only a few
    # instances before aborting; identical restocks would mean phantoms
    assert pools[False] < pools[True]


def test_rejected_plan_does_not_leak_warm_pool():
    """An injector that rejects its plan at install time (after the round
    is built) must not drain the warm pool: the next round still reuses."""
    platform = _platform()
    platform.run_round(_arrivals(40), RESNET152_BYTES, include_eval=False)
    pool_before = platform.engine.lifecycle.warm.total()
    assert pool_before > 0
    bad = FaultPlan(
        nic_degradations=(NicDegrade(node="ghost", start=0.0, end=1.0, factor=0.5),)
    )
    with pytest.raises(ChaosError, match="unknown node"):
        platform.run_round(
            _arrivals(40), RESNET152_BYTES, include_eval=False,
            injector=FaultInjector(bad),
        )
    assert platform.engine.lifecycle.warm.total() >= pool_before
    healthy = platform.run_round(_arrivals(40), RESNET152_BYTES, include_eval=False)
    assert healthy.aggregators_reused > 0  # no spurious cold-start storm


def test_crash_only_plan_installs_no_recovery_controllers():
    """Recovery sweeps only matter when clients can disappear; crash-only
    plans must not pay the per-sweep beat loop."""
    platform = _platform()
    injector = FaultInjector(FaultPlan(seed=1, crashes=(AggregatorCrash(at=3.0),)))
    platform.run_round(
        _arrivals(30), RESNET152_BYTES, include_eval=False, injector=injector,
    )
    assert injector.controllers == []
    assert injector.report.crashes_injected == 1


def test_restart_requires_created_unfinished_instance():
    env = Environment()
    inst, _ = _instance(env)
    with pytest.raises(Exception, match="before creation"):
        inst.restart(0.0, reused=True)
    assert inst.crash() is False  # nothing to kill yet


def test_store_drop_getters_prevents_item_loss():
    env = Environment()
    store = Store(env)

    got: list[object] = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()  # consumer parks on the empty store
    assert store.drop_getters() == 1
    store.put_nowait("x")  # would have vanished into the dead getter
    assert store.try_get() == "x"
    assert got == []


# ---- multi-tenant rounds ---------------------------------------------------

def test_multi_tenant_rounds_share_fabric_but_not_results():
    platform = _platform()
    results = platform.run_multi_tenant(
        [_arrivals(30, seed=1), _arrivals(30, seed=2)], RESNET152_BYTES
    )
    assert len(results) == 2
    for result in results:
        assert result.updates_aggregated == 30
        assert result.act > 0
    # distinct tenants, distinct plans: the round tags differ
    assert results[0].instances[0].agg_id != results[1].instances[0].agg_id


def test_multi_tenant_contention_never_speeds_up_rounds():
    single = _platform(4, locality_aware=False)
    solo = single.run_round(
        _arrivals(40), RESNET152_BYTES, include_eval=False, record_timeline=False
    )
    multi = _platform(4, locality_aware=False)
    shared = multi.run_multi_tenant(
        [_arrivals(40), _arrivals(40, seed=7)], RESNET152_BYTES
    )
    # locality-agnostic rounds cross nodes, so sharing the fabric with a
    # second tenant cannot make the first tenant faster
    assert shared[0].act >= solo.act - 1e-9


def test_multi_tenant_abort_is_isolated_per_tenant():
    """One tenant losing its quorum must not destroy its neighbours'
    completed rounds: the aborted tenant comes back flagged, the others
    finish normally."""
    platform = _platform()
    plan = FaultPlan(
        seed=3, quorum_fraction=0.95, heartbeat_timeout=1.0, sweep_interval=0.5,
        dropouts=(DropoutWave(at=0.5, fraction=0.9, tenant=1),),
    )
    results = platform.run_multi_tenant(
        [_arrivals(30, seed=1), _arrivals(30, seed=2)],
        RESNET152_BYTES,
        injector=FaultInjector(plan),
    )
    assert not results[0].aborted
    assert results[0].updates_aggregated == 30
    assert results[0].act > 0
    assert results[1].aborted
    assert results[1].act == 0.0
    assert results[1].clients_dropped > 0


def test_multi_tenant_chaos_targets_single_tenant():
    platform = _platform()
    plan = FaultPlan(
        seed=3, quorum_fraction=0.3, heartbeat_timeout=2.0, sweep_interval=0.5,
        dropouts=(DropoutWave(at=1.0, fraction=0.4, tenant=1),),
    )
    results = platform.run_multi_tenant(
        [_arrivals(30, seed=1), _arrivals(30, seed=2)],
        RESNET152_BYTES,
        injector=FaultInjector(plan),
    )
    assert results[0].clients_dropped == 0
    assert results[0].updates_aggregated == 30
    assert results[1].clients_dropped > 0
    assert results[1].updates_aggregated == 30 - results[1].clients_dropped
