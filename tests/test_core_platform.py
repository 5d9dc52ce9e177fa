"""Platform presets and the FL workload driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.common.units import RESNET18_BYTES
from repro.core.platform import AggregationPlatform, IngressKind, PlatformConfig
from repro.core.rounds import FLWorkloadConfig, run_fl_workload
from repro.dataplane.pipelines import PipelineKind
from repro.fl.convergence import curve_for
from repro.fl.model import model_spec
from repro.workloads.fedscale import MOBILE_PROFILE, make_population


def test_presets_encode_paper_table():
    lifl = PlatformConfig.lifl()
    assert lifl.pipeline is PipelineKind.LIFL and lifl.ingress is IngressKind.GATEWAY
    assert lifl.eager and lifl.reuse and lifl.locality_aware
    sf = PlatformConfig.serverful()
    assert sf.fixed_instances > 0 and sf.cold_start_latency == 0.0
    sl = PlatformConfig.serverless()
    assert not sl.eager and not sl.reuse and not sl.locality_aware
    assert sl.sidecar_reserved_cores > 0
    slh = PlatformConfig.sl_h()
    assert slh.pipeline is PipelineKind.LIFL  # same data plane as LIFL
    assert slh.placement_policy == "worstfit"


def test_preset_overrides():
    cfg = PlatformConfig.lifl(eager=False, updates_per_leaf=4)
    assert not cfg.eager and cfg.updates_per_leaf == 4


def test_config_validation():
    with pytest.raises(ConfigError):
        PlatformConfig.lifl(updates_per_leaf=0)
    with pytest.raises(ConfigError):
        PlatformConfig.lifl(cold_start_latency=-1.0)


def test_fleet_validation():
    """Only ``None`` means the default fleet; an empty or duplicated fleet
    is refused at construction, not at the first round."""
    assert AggregationPlatform(PlatformConfig.lifl()).node_names == [f"node{i}" for i in range(5)]
    with pytest.raises(ConfigError, match="at least one node"):
        AggregationPlatform(PlatformConfig.lifl(), node_names=[])
    with pytest.raises(ConfigError, match=r"duplicate node names in fleet: \['a'\]"):
        AggregationPlatform(PlatformConfig.lifl(), node_names=["a", "a", "b"])


def test_place_updates_respects_policy():
    plat = AggregationPlatform(PlatformConfig.lifl())
    arr = [(0.0, 1.0)] * 20
    updates = plat.place_updates(arr, RESNET18_BYTES)
    assert len({u.node for u in updates}) == 1  # bestfit packs
    spread = AggregationPlatform(PlatformConfig.sl_h())
    updates2 = spread.place_updates(arr, RESNET18_BYTES)
    assert len({u.node for u in updates2}) == 5


def test_static_plan_for_serverful():
    plat = AggregationPlatform(PlatformConfig.serverful(leaf_nodes=4))
    arr = [(0.0, 1.0)] * 20
    updates = plat.place_updates(arr, RESNET18_BYTES)
    plan = plat.plan_round(updates)
    # one leaf per active static node + top on the last node
    assert plan.top_node == plat.node_names[-1]
    plan.validate()


def test_run_round_end_to_end_all_presets():
    arr = [(float(i) * 0.5, 1.0) for i in range(10)]
    for cfg in (
        PlatformConfig.lifl(),
        PlatformConfig.serverful(instances=10),
        PlatformConfig.serverless(),
        PlatformConfig.sl_h(),
    ):
        result = AggregationPlatform(cfg).run_round(arr, RESNET18_BYTES)
        assert result.act > 0, cfg.name
        assert result.cpu_total > 0, cfg.name


def test_fl_workload_runs_and_accumulates():
    spec = model_spec("resnet18")
    pop = make_population(300, spec, MOBILE_PROFILE, seed=0)
    wl = FLWorkloadConfig(
        spec=spec,
        curve=curve_for("resnet18"),
        aggregation_goal=20,
        active_clients=40,
        rounds=5,
        stop_at_target=False,
    )
    res = run_fl_workload(
        AggregationPlatform(PlatformConfig.lifl()), pop, wl, make_rng(0, "wl")
    )
    assert res.rounds == 5
    assert res.wall_clock_hours() > 0
    assert res.cpu_hours() > 0
    accs = [s.accuracy for s in res.samples]
    assert accs == sorted(accs)  # learning curve is monotone (low noise)


def test_fl_workload_stops_at_target():
    spec = model_spec("mlp-small")
    pop = make_population(100, spec, MOBILE_PROFILE, seed=0)
    wl = FLWorkloadConfig(
        spec=spec,
        curve=curve_for("mlp-small"),
        aggregation_goal=10,
        active_clients=20,
        rounds=100,
        target_accuracy=0.70,
        stop_at_target=True,
    )
    res = run_fl_workload(
        AggregationPlatform(PlatformConfig.lifl()), pop, wl, make_rng(1, "wl")
    )
    assert res.rounds < 100
    assert res.samples[-1].accuracy >= 0.70
    assert res.time_to_accuracy(0.70) is not None
    assert res.cost_to_accuracy(0.70) is not None
    assert res.time_to_accuracy(0.99) is None


def test_workload_config_validation():
    spec = model_spec("resnet18")
    with pytest.raises(ConfigError):
        FLWorkloadConfig(spec=spec, curve=curve_for("resnet18"), aggregation_goal=0, active_clients=5, rounds=1)
    with pytest.raises(ConfigError):
        FLWorkloadConfig(spec=spec, curve=curve_for("resnet18"), aggregation_goal=10, active_clients=5, rounds=1)


def test_series_helpers():
    spec = model_spec("resnet18")
    pop = make_population(100, spec, MOBILE_PROFILE, seed=0)
    wl = FLWorkloadConfig(
        spec=spec, curve=curve_for("resnet18"), aggregation_goal=10,
        active_clients=20, rounds=3, stop_at_target=False,
    )
    res = run_fl_workload(AggregationPlatform(PlatformConfig.lifl()), pop, wl, make_rng(2, "wl"))
    acc_series = res.accuracy_series()
    cumulative_cpu = np.cumsum([s.cpu_total for s in res.samples])
    assert len(acc_series) == len(cumulative_cpu) == 3
    assert cumulative_cpu[-1] > cumulative_cpu[0]  # cumulative CPU grows
