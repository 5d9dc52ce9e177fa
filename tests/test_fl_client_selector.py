"""Clients, selection, convergence curves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.client import ClientConfig, FLClient
from repro.fl.convergence import AccuracyCurve, curve_for
from repro.fl.model import Model, model_spec
from repro.fl.selector import Selector, SelectorConfig
from repro.workloads.fedscale import MOBILE_PROFILE, SERVER_PROFILE, make_population


def test_client_config_validation():
    with pytest.raises(ConfigError):
        ClientConfig("c", speed_factor=0.0)
    with pytest.raises(ConfigError):
        ClientConfig("c", hibernate_max=-1.0)


def test_training_duration_scales_with_speed():
    spec = model_spec("resnet18")
    rng = make_rng(0, "dur")
    fast = FLClient(ClientConfig("f", speed_factor=2.0), spec)
    slow = FLClient(ClientConfig("s", speed_factor=0.5), spec)
    f = np.mean([fast.training_duration(rng) for _ in range(200)])
    s = np.mean([slow.training_duration(rng) for _ in range(200)])
    assert s > 3.0 * f


def test_hibernation_bounds():
    spec = model_spec("resnet18")
    rng = make_rng(1, "hib")
    mobile = FLClient(ClientConfig("m", hibernate_max=60.0), spec)
    server = FLClient(ClientConfig("s", hibernate_max=0.0), spec)
    values = [mobile.hibernation(rng) for _ in range(300)]
    assert all(0.0 <= v <= 60.0 for v in values)
    assert max(values) > 40.0  # actually spans the range
    assert server.hibernation(rng) == 0.0


def test_timed_client_cannot_really_train():
    client = FLClient(ClientConfig("c"), model_spec("resnet152"))
    with pytest.raises(ConfigError):
        client.train(Model({"block": np.zeros(4, dtype=np.float32)}), make_rng(0, "x"))


def test_population_heterogeneity():
    pop = make_population(100, model_spec("resnet18"), MOBILE_PROFILE, seed=2).clients
    speeds = [c.config.speed_factor for c in pop]
    assert len(pop) == 100
    assert max(speeds) / min(speeds) > 2.0
    assert all(c.config.hibernate_max == 60.0 for c in pop)


def test_selector_over_provisions():
    sel = Selector(SelectorConfig(aggregation_goal=10, over_provision=1.5))
    assert sel.target_count() == 15
    pop = make_population(50, model_spec("resnet18"), SERVER_PROFILE, seed=3).clients
    chosen = sel.select(pop, make_rng(3, "sel"))
    assert len(chosen) == 15
    assert len({c.client_id for c in chosen}) == 15  # no duplicates


def test_selector_handles_small_pool():
    sel = Selector(SelectorConfig(aggregation_goal=10, over_provision=2.0))
    pop = make_population(5, model_spec("resnet18"), SERVER_PROFILE, seed=4).clients
    assert len(sel.select(pop, make_rng(4, "s"))) == 5


def test_selector_validation():
    with pytest.raises(ConfigError):
        SelectorConfig(aggregation_goal=0)
    with pytest.raises(ConfigError):
        SelectorConfig(aggregation_goal=5, over_provision=0.9)
    with pytest.raises(ConfigError):
        SelectorConfig(aggregation_goal=5, diversity="random")
    with pytest.raises(ConfigError):
        Selector(SelectorConfig(aggregation_goal=1)).select([], make_rng(0, "x"))


def test_curve_monotone_and_saturating():
    curve = AccuracyCurve(a_max=0.8, tau=20.0, noise_scale=0.0)
    accs = [curve.accuracy_at(r) for r in range(0, 200, 10)]
    assert accs[0] == 0.0
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert accs[-1] <= 0.8


def test_curve_rounds_to_target():
    curve = AccuracyCurve(a_max=0.82, tau=36.0, noise_scale=0.0)
    r = curve.rounds_to(0.70)
    assert curve.accuracy_at(r) >= 0.70
    assert curve.accuracy_at(r - 1) < 0.70


def test_curve_determinism_with_noise():
    curve = AccuracyCurve(a_max=0.8, tau=10.0, noise_scale=0.01)
    assert curve.accuracy_at(7) == curve.accuracy_at(7)


def test_curve_validation_and_presets():
    with pytest.raises(ConfigError):
        AccuracyCurve(a_max=0.0, tau=1.0)
    with pytest.raises(ConfigError):
        AccuracyCurve(a_max=0.5, tau=1.0).rounds_to(0.9)
    for name in ("resnet18", "resnet34", "resnet152", "mlp-small"):
        assert curve_for(name).a_max > 0.5
    with pytest.raises(ConfigError):
        curve_for("vit-22b")
