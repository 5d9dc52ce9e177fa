"""Round engine: eager/lazy, cold starts, reuse, cross-node, CPU accounts."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.common.units import RESNET152_BYTES, RESNET18_BYTES
from repro.core.aggregator import AggregatorCosts, AggregatorInstance
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.roundsim import RoundEngine
from repro.core.updates import MailboxItem, SimUpdate
from repro.controlplane.hierarchy import plan_hierarchy
from repro.sim.engine import Environment
from repro.workloads.arrival import concurrent_arrivals, staggered_arrivals


def make_updates(times, node="node0", nbytes=RESNET152_BYTES):
    return [
        SimUpdate(uid=i, nbytes=nbytes, weight=1.0, arrival_time=t, node=node, client_id=f"u{i}")
        for i, t in enumerate(times)
    ]


def run_once(cfg, n=8, nodes=("node0",), spread=0.0, nbytes=RESNET152_BYTES, rounds=1):
    engine = RoundEngine(cfg, list(nodes))
    updates = make_updates(staggered_arrivals(n, spread), node=nodes[0], nbytes=nbytes)
    plan = plan_hierarchy({nodes[0]: n}, updates_per_leaf=cfg.updates_per_leaf)
    result = None
    for _ in range(rounds):
        result = engine.run_round(updates, plan, include_eval=False)
    return result


def test_round_produces_positive_act():
    r = run_once(PlatformConfig.lifl())
    assert r.act > 0
    assert r.updates_aggregated == 8
    assert r.nodes_used == 1


def test_eager_beats_lazy_with_spread():
    eager = run_once(PlatformConfig.lifl(eager=True, prewarm=True), n=12, spread=6.0)
    lazy = run_once(PlatformConfig.lifl(eager=False, prewarm=True), n=12, spread=6.0)
    assert eager.act < lazy.act
    # Paper §5.4: roughly a 20% ACT reduction; accept a broad band.
    assert lazy.act / eager.act > 1.05


def test_eager_equals_lazy_work_done():
    eager = run_once(PlatformConfig.lifl(eager=True), n=8)
    lazy = run_once(PlatformConfig.lifl(eager=False), n=8)
    assert eager.updates_aggregated == lazy.updates_aggregated
    # Aggregation CPU is identical; only timing differs.
    assert eager.cpu_by_component["aggregation"] == pytest.approx(
        lazy.cpu_by_component["aggregation"]
    )


def test_cold_start_penalty_visible():
    cold = run_once(PlatformConfig.lifl(reuse=False, prewarm=False))
    warm = run_once(PlatformConfig.lifl(reuse=True), rounds=2)
    assert cold.aggregators_created > 0
    assert warm.aggregators_created == 0  # steady state: all reused
    assert warm.act < cold.act


def test_reuse_pool_persists_across_rounds():
    cfg = PlatformConfig.lifl()
    engine = RoundEngine(cfg, ["node0"])
    updates = make_updates(concurrent_arrivals(8))
    plan = plan_hierarchy({"node0": 8}, updates_per_leaf=2)
    r1 = engine.run_round(updates, plan, include_eval=False)
    r2 = engine.run_round(updates, plan, include_eval=False)
    assert r1.aggregators_created > 0
    assert r2.aggregators_created == 0
    assert r2.aggregators_reused == len(r2.instances)


def test_cross_node_transfers_counted():
    cfg = PlatformConfig.lifl()
    engine = RoundEngine(cfg, ["node0", "node1"])
    updates = make_updates(concurrent_arrivals(4), node="node0") + [
        SimUpdate(uid=10 + i, nbytes=RESNET152_BYTES, weight=1.0, arrival_time=0.0, node="node1")
        for i in range(4)
    ]
    plan = plan_hierarchy({"node0": 4, "node1": 4}, top_node="node0")
    result = engine.run_round(updates, plan, include_eval=False)
    assert result.cross_node_transfers == 1  # node1's intermediate to top
    assert result.nodes_used == 2


def test_locality_agnostic_pays_more_cross_node():
    n = 20
    local = AggregationPlatform(PlatformConfig.sl_h(placement_policy="bestfit", locality_aware=True))
    agnostic = AggregationPlatform(PlatformConfig.sl_h())
    arr = [(0.0, 1.0)] * n
    r_local = local.run_round(arr, RESNET152_BYTES, include_eval=False)
    r_agn = agnostic.run_round(arr, RESNET152_BYTES, include_eval=False)
    assert r_agn.cross_node_transfers > r_local.cross_node_transfers
    assert r_agn.act > r_local.act
    assert r_agn.cpu_total > r_local.cpu_total


def test_eval_extends_completion_time():
    with_eval = run_once(PlatformConfig.lifl())
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    updates = make_updates(staggered_arrivals(8, 0.0))
    plan = plan_hierarchy({"node0": 8}, updates_per_leaf=2)
    w = engine.run_round(updates, plan, include_eval=True)
    assert w.completion_time > w.act


def test_chain_overhead_extends_completion():
    plain = run_once(PlatformConfig.lifl())
    taxed = run_once(PlatformConfig.lifl(chain_overhead_fixed_per_update=1.0))
    assert taxed.completion_time > plain.completion_time
    assert taxed.act == pytest.approx(plain.act)  # ACT itself unchanged


def test_sf_reservation_scales_with_fixed_instances():
    small = run_once(PlatformConfig.serverful(instances=10), nbytes=RESNET18_BYTES)
    big = run_once(PlatformConfig.serverful(instances=60), nbytes=RESNET18_BYTES)
    assert big.cpu_reserved > small.cpu_reserved


def test_mixed_model_sizes_rejected():
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    ups = [
        SimUpdate(0, RESNET18_BYTES, 1.0, 0.0, "node0"),
        SimUpdate(1, RESNET152_BYTES, 1.0, 0.0, "node0"),
    ]
    plan = plan_hierarchy({"node0": 2})
    with pytest.raises(ConfigError):
        engine.run_round(ups, plan)


def test_empty_round_rejected():
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    with pytest.raises(ConfigError):
        engine.run_round([], plan_hierarchy({"node0": 1}))


def test_timeline_contains_agg_events():
    r = run_once(PlatformConfig.lifl())
    kinds = {e.kind for e in r.timeline}
    assert "agg" in kinds
    assert "network" in kinds


def test_weights_flow_into_result():
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    ups = [
        SimUpdate(i, RESNET18_BYTES, weight=float(i + 1), arrival_time=0.0, node="node0")
        for i in range(4)
    ]
    plan = plan_hierarchy({"node0": 4})
    result = engine.run_round(ups, plan, include_eval=False)
    assert result.updates_aggregated == 4


# ------------------------------------------------------ touched-node install
FLEET_500 = [f"node{i:03d}" for i in range(500)]
FLEET_8 = ["node000", "node001", "node007", "node050", "node100", "node200", "node300", "node499"]


def _two_node_round():
    """8 updates on node300 and node007 (alternating, so neither comes
    first in fleet order by accident); the tree's top lands on node300."""
    ups = [
        SimUpdate(i, RESNET18_BYTES, 1.0, 0.1 * i, "node300" if i % 2 else "node007",
                  client_id=f"u{i}")
        for i in range(8)
    ]
    return ups, plan_hierarchy({"node300": 4, "node007": 4}, updates_per_leaf=2)


def _spy_ingress(engine, monkeypatch) -> list[list[str]]:
    """Record the node keys of every ingress-resource map the engine builds."""
    built: list[list[str]] = []
    build = engine.ingress.build_resources

    def spy(*args, **kwargs):
        res = build(*args, **kwargs)
        built.append(list(res))
        return res

    monkeypatch.setattr(engine.ingress, "build_resources", spy)
    return built


def test_install_builds_ledgers_and_ingress_only_for_touched_nodes(monkeypatch):
    engine = RoundEngine(PlatformConfig.lifl(), FLEET_500)
    built = _spy_ingress(engine, monkeypatch)
    ups, plan = _two_node_round()
    env = Environment()
    tenant = engine.install_round(env, engine.build_fabric(env), ups, plan)
    assert list(tenant.nodes) == ["node007", "node300"]
    assert built == [["node007", "node300"]]


@pytest.mark.parametrize("cfg", [PlatformConfig.lifl(), PlatformConfig.sl_h()],
                         ids=["LIFL", "SL-H"])
def test_round_on_large_fleet_equals_round_on_small_fleet(cfg):
    ups, plan = _two_node_round()
    big = RoundEngine(cfg, FLEET_500).run_round(ups, plan)
    small = RoundEngine(cfg, FLEET_8).run_round(ups, plan)
    assert big == small
    # CPU components fold in the same (fleet) order
    assert list(big.cpu_by_component) == list(small.cpu_by_component)


def test_partitioned_root_install_includes_remote_source_nodes(monkeypatch):
    engine = RoundEngine(PlatformConfig.lifl(), FLEET_500)
    built = _spy_ingress(engine, monkeypatch)
    plan = plan_hierarchy(
        {"node450": 2, "node300": 2, "node100": 2, "node007": 2},
        updates_per_leaf=2, top_node="node300",
    )
    root_updates = [SimUpdate(i, RESNET18_BYTES, 1.0, 0.0, "node300") for i in range(2)]
    # node100 has plan aggregators but, off-partition and silent here, no
    # charge can reach it; the two remote sources must get ledgers.
    remote = [
        ("r0/leaf0@node450", "node450", 2.0, 0.5),
        ("r0/leaf0@node007", "node007", 2.0, 0.7),
    ]
    env = Environment()
    tenant = engine._install(
        env, engine.build_fabric(env), root_updates, plan, record_timeline=False,
        local_nodes=frozenset({"node300"}), remote_inputs=remote,
    )
    assert list(tenant.nodes) == ["node007", "node300", "node450"]
    assert built == [["node007", "node300", "node450"]]
    assert set(tenant.instances) == {
        spec.agg_id for spec in plan.aggregators.values() if spec.node == "node300"
    }


def test_install_rejects_nodes_outside_the_fleet():
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    ups = make_updates([0.0, 0.0], node="node9")
    env = Environment()
    with pytest.raises(ConfigError, match="outside the fleet"):
        engine.install_round(
            env, engine.build_fabric(env), ups, plan_hierarchy({"node9": 2})
        )


def test_cost_table_is_built_once_per_model_size(monkeypatch):
    engine = RoundEngine(PlatformConfig.lifl(), ["node0"])
    calls = []
    costs = engine.transfer.costs

    def counting(cfg, cal, nbytes):
        calls.append(nbytes)
        return costs(cfg, cal, nbytes)

    monkeypatch.setattr(engine.transfer, "costs", counting)
    for nbytes in (RESNET18_BYTES, RESNET152_BYTES, RESNET18_BYTES):
        ups = make_updates([0.0, 0.5], nbytes=nbytes)
        engine.run_round(ups, plan_hierarchy({"node0": 2}), include_eval=False)
    assert calls == [RESNET18_BYTES, RESNET152_BYTES]


def test_lazy_aggregator_drains_a_large_same_instant_backlog():
    """A lazy top with thousands of children: every item lands in one
    instant and the Recv step costs nothing, so the loop must iterate over
    the backlog rather than nest one call per item."""
    env = Environment()
    outputs: list[float] = []
    n = 5000
    inst = AggregatorInstance(
        env=env,
        agg_id="top",
        node="node0",
        role="top",
        fan_in=n,
        costs=AggregatorCosts(0.0, 0.0, 0.001, 0.0, 0.0, 0.0),
        eager=False,
        charge_cpu=lambda comp, s: None,
        on_output=lambda inst, weight, now: outputs.append(weight),
        record=None,
    )
    inst.ensure_created(reused=True)
    for i in range(n):
        inst.deliver(MailboxItem(1.0 + (i % 3), f"c{i}", False, 0.0))
    env.run()
    assert outputs == [float(sum(1 + (i % 3) for i in range(n)))]
    assert inst.stats.updates_aggregated == n
    assert inst.stats.client_updates == n
