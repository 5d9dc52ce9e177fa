"""Round-engine stages: ingress resolution and extension through the
``ingress`` policy family, engine neutrality, transfer and lifecycle."""

from __future__ import annotations

import inspect

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.hierarchy import AggregatorSpec, HierarchyPlan, Role
from repro.core import roundsim
from repro.core.platform import PlatformConfig
from repro.core.policies import POLICIES, policy, resolve_policy
from repro.core.roundsim import RoundEngine
from repro.core.stages import (
    GatewayIngress,
    IngressCosts,
    LifecycleStage,
    ServerfulBrokerIngress,
    ServerlessBrokerIngress,
    TransferStage,
    resolve_ingress,
)
from repro.core.updates import SimUpdate
from repro.dataplane.calibration import DEFAULT_CALIBRATION


def _one_node_plan() -> HierarchyPlan:
    plan = HierarchyPlan()
    plan.aggregators["t/top@node0"] = AggregatorSpec(
        "t/top@node0", Role.TOP, "node0", fan_in=2
    )
    plan.top_node = "node0"
    plan.validate()
    return plan


def _updates(n: int = 2, nbytes: float = 1e6) -> list[SimUpdate]:
    return [
        SimUpdate(uid=i, nbytes=nbytes, weight=1.0, arrival_time=float(i), node="node0", client_id=f"c{i}")
        for i in range(n)
    ]


def test_preset_ingress_resolution():
    assert isinstance(resolve_ingress(PlatformConfig.lifl()), GatewayIngress)
    assert isinstance(resolve_ingress(PlatformConfig.serverful()), ServerfulBrokerIngress)
    assert isinstance(resolve_ingress(PlatformConfig.serverless()), ServerlessBrokerIngress)
    assert isinstance(resolve_ingress(PlatformConfig.sl_h()), GatewayIngress)


def test_explicit_stage_key_overrides_derivation():
    cfg = PlatformConfig.lifl(ingress_stage="broker-sl")
    assert isinstance(resolve_ingress(cfg), ServerlessBrokerIngress)


def test_unknown_stage_key_raises():
    with pytest.raises(ConfigError, match="unknown ingress policy"):
        resolve_ingress(PlatformConfig.lifl(ingress_stage="nope"))
    # ingress has no registry default: its default derives from the config
    with pytest.raises(ConfigError, match="unknown ingress policy"):
        resolve_policy("ingress")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        policy("ingress", "gateway")(GatewayIngress)


def test_registry_names_listed():
    assert {"gateway", "broker-sf", "broker-sl"} <= set(POLICIES.names("ingress"))


def test_transfer_split_sums_to_pipeline_total():
    cfg = PlatformConfig.lifl()
    xfer = TransferStage().costs(cfg, DEFAULT_CALIBRATION, 1e7)
    assert xfer.inter_tx_latency + xfer.inter_rx_latency > 0
    assert xfer.inter_tx_latency == pytest.approx(xfer.inter_rx_latency)
    assert xfer.intra_latency > 0 and xfer.intra_cpu > 0


def test_roundsim_does_not_branch_on_ingress_kind():
    """The engine must resolve ingress behaviour through the registry, not
    by inspecting IngressKind."""
    source = inspect.getsource(roundsim)
    assert "IngressKind" not in source


def test_custom_ingress_stage_flows_through_engine():
    """A scenario-registered ingress variant is picked up by the engine via
    config alone — no roundsim changes."""
    registered = "free-ingress" in POLICIES.names("ingress")
    if not registered:

        @policy("ingress", "free-ingress")
        class FreeIngress(ServerlessBrokerIngress):
            """Zero-cost ingress: isolates the aggregation path."""

            def costs(self, cfg, cal, nbytes):
                return IngressCosts(0.0, 0.0, 0.0, 0.0)

            def reserved_cpu(self, cfg, duration, nodes_used):
                return 0.0

    baseline_cfg = PlatformConfig.serverless(prewarm=True, ramp_delay=0.0)
    custom_cfg = PlatformConfig.serverless(
        prewarm=True, ramp_delay=0.0, ingress_stage="free-ingress"
    )
    plan = _one_node_plan()
    base = RoundEngine(baseline_cfg, ["node0"]).run_round(
        _updates(), plan, include_eval=False
    )
    free = RoundEngine(custom_cfg, ["node0"]).run_round(
        _updates(), plan, include_eval=False
    )
    assert free.act < base.act  # free ingress strictly shortens the round


def test_warm_pool_lifecycle_stocks_and_drains():
    lifecycle = LifecycleStage()
    lifecycle.begin_round()
    lifecycle.end_round(PlatformConfig.lifl(), {"node0": 3})
    assert lifecycle.warm.total() == 3
    assert lifecycle.warm.take("node0")
    assert lifecycle.warm.total() == 2
    assert not lifecycle.warm.take("node1")
    # no stocking when the config disables reuse
    lifecycle2 = LifecycleStage()
    lifecycle2.end_round(PlatformConfig.serverless(), {"node0": 3})
    assert lifecycle2.warm.total() == 0


def test_engine_exposes_stage_objects():
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    assert isinstance(engine.ingress, GatewayIngress)
    assert isinstance(engine.transfer, TransferStage)
    assert isinstance(engine.lifecycle, LifecycleStage)


def test_lifecycle_raising_mid_round_propagates():
    """A stage that blows up during instance creation must surface, not be
    swallowed by the event loop."""

    class ExplodingLifecycle(LifecycleStage):
        def ensure_created(self, inst, env, cfg, finished_on_node, admission=None):
            raise RuntimeError("stage failed mid-round")

    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    engine.lifecycle = ExplodingLifecycle()
    with pytest.raises(RuntimeError, match="stage failed mid-round"):
        engine.run_round(_updates(), _one_node_plan(), include_eval=False)


def test_resilient_lifecycle_restart_accounting_warm_then_cold():
    """A restart is funded from the warm pool when one is available on the
    node (instant takeover), otherwise it pays a cold start."""
    from repro.core.aggregator import AggregatorCosts, AggregatorInstance, InstanceState
    from repro.sim.engine import Environment

    env = Environment()
    inst = AggregatorInstance(
        env=env,
        agg_id="leaf0",
        node="node0",
        role="leaf",
        fan_in=2,
        costs=AggregatorCosts(0.0, 0.0, 0.1, 0.0, 2.0, 1.0),
        eager=True,
        charge_cpu=lambda comp, secs: None,
        on_output=lambda *a: None,
        record=None,
    )
    inst.ensure_created(reused=True)
    env.run(until=1.0)
    cfg = PlatformConfig.lifl()
    stage = LifecycleStage()
    stage.warm.put("node0", 1)

    stage.restart_instance(inst, env, cfg)
    assert inst.state is InstanceState.READY  # warm takeover is instant
    assert (inst.stats.restarts, inst.stats.reused) == (1, True)
    assert stage.warm.total() == 0

    stage.restart_instance(inst, env, cfg)  # pool empty -> cold restart
    assert inst.state is InstanceState.STARTING
    assert inst.stats.reused is False
    env.run()
    assert inst.stats.restarts == 2

    # begin_round keeps the pool
    stage.warm.put("node0", 2)
    stage.begin_round()
    assert stage.warm.total() == 2


def test_ramp_admission_is_round_start_relative():
    """The reactive ramp (§2.3) counts from the *round's* start, not the
    simulation epoch — a round admitted mid-replay at t=100 ramps its k-th
    instance at 100 + k*ramp, where the old sim-clock-relative form would
    have admitted everything instantly."""
    from repro.sim.engine import Environment

    cfg = PlatformConfig.serverless()  # ramp_delay 6, no prewarm, no reuse
    stage = LifecycleStage()
    env = Environment()
    created: list[float] = []

    class Inst:
        node = "node0"
        _created = False

        def ensure_created(self, reused=False):
            created.append(env.now)

    def driver():
        yield env.timeout(100.0)
        admission = stage.begin_round(env.now)
        for _ in range(3):
            stage.ensure_created(Inst(), env, cfg, {}, admission)

    env.process(driver())
    env.run()
    assert created == [100.0, 106.0, 112.0]


def test_ramp_admission_contexts_do_not_clobber():
    """Two overlapping rounds each carry their own RoundAdmission, so their
    per-node creation counters ramp independently."""
    from repro.sim.engine import Environment

    cfg = PlatformConfig.serverless()
    stage = LifecycleStage()
    env = Environment()
    created: dict[str, list[float]] = {"a": [], "b": []}

    def inst(tag: str):
        class Inst:
            node = "node0"
            _created = False

            def ensure_created(self, reused=False):
                created[tag].append(env.now)

        return Inst()

    def round_at(t0: float, tag: str):
        yield env.timeout(t0)
        admission = stage.begin_round(env.now)
        for _ in range(2):
            stage.ensure_created(inst(tag), env, cfg, {}, admission)

    env.process(round_at(10.0, "a"))
    env.process(round_at(13.0, "b"))
    env.run()
    assert created["a"] == [10.0, 16.0]
    assert created["b"] == [13.0, 19.0]


def test_coalesced_gateway_stage_registered():
    from repro.core.stages import CoalescedGatewayIngress

    assert "gateway-coalesced" in POLICIES.names("ingress")
    stage = resolve_ingress(PlatformConfig.lifl(ingress_stage="gateway-coalesced"))
    assert isinstance(stage, CoalescedGatewayIngress)
    assert isinstance(stage, GatewayIngress)  # same admission resources


def test_coalesced_arrivals_spawn_at_identical_instants():
    """One walker process admits the whole batch at the same instants the
    per-update heap entries would have."""
    from repro.core.stages import CoalescedGatewayIngress
    from repro.sim.engine import Environment

    updates = _updates(6)
    for stage_cls in (GatewayIngress, CoalescedGatewayIngress):
        env = Environment()
        seen: dict[int, float] = {}

        def spawn(update, delay, env=env, seen=seen):
            def arrive(e=env, u=update, s=seen):
                yield e.timeout(delay)
                s[u.uid] = e.now

            return env.process(arrive())

        # default path spawns with delay=arrival_time; coalesced path
        # spawns with delay=0 at the walker's wake instant
        procs = stage_cls().install_arrivals(env, updates, spawn)
        env.run()
        assert len(procs) == len(updates)
        assert seen == {u.uid: u.arrival_time for u in updates}
