"""Workload generation: populations, traces, arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.model import model_spec
from repro.workloads.arrival import (
    concurrent_arrivals,
    generate_round_trace,
    poisson_arrivals,
    staggered_arrivals,
)
from repro.workloads.fedscale import MOBILE_PROFILE, SERVER_PROFILE, make_population


def test_population_size_and_profiles():
    pop = make_population(2800, model_spec("resnet18"), MOBILE_PROFILE, seed=0)
    assert pop.size == 2800
    assert pop.profile.hibernate_max == 60.0
    server = make_population(15, model_spec("resnet152"), SERVER_PROFILE, seed=0)
    assert all(c.config.hibernate_max == 0.0 for c in server.clients)


def test_population_weights_positive_heavy_tailed():
    pop = make_population(500, model_spec("resnet18"), MOBILE_PROFILE, seed=1)
    weights = np.array(list(pop.weights().values()))
    assert weights.min() >= 10
    assert weights.max() > 2 * np.median(weights)


def test_population_deterministic():
    a = make_population(50, model_spec("resnet18"), MOBILE_PROFILE, seed=5)
    b = make_population(50, model_spec("resnet18"), MOBILE_PROFILE, seed=5)
    assert a.sample_counts == b.sample_counts


def test_round_trace_sorted_and_complete():
    pop = make_population(40, model_spec("resnet18"), MOBILE_PROFILE, seed=2)
    trace = generate_round_trace(pop.clients, pop.weights(), make_rng(2, "trace"))
    times = trace.arrival_times()
    assert len(trace) == 40
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_round_trace_mobile_spread_exceeds_server_spread():
    spec18, spec152 = model_spec("resnet18"), model_spec("resnet152")
    mobile = make_population(60, spec18, MOBILE_PROFILE, seed=3)
    server = make_population(60, spec152, SERVER_PROFILE, seed=3)
    mt = generate_round_trace(mobile.clients, mobile.weights(), make_rng(3, "m"))
    st = generate_round_trace(server.clients, server.weights(), make_rng(3, "s"))
    m_spread = mt.arrival_times()[-1] - mt.arrival_times()[0]
    s_spread = st.arrival_times()[-1] - st.arrival_times()[0]
    assert m_spread > s_spread  # hibernation dominates the mobile spread


def test_time_to_goal():
    pop = make_population(20, model_spec("resnet18"), MOBILE_PROFILE, seed=4)
    trace = generate_round_trace(pop.clients, pop.weights(), make_rng(4, "t"))
    t10 = trace.time_to_goal(10)
    t20 = trace.time_to_goal(20)
    assert t10 <= t20
    with pytest.raises(ConfigError):
        trace.time_to_goal(21)
    with pytest.raises(ConfigError):
        trace.time_to_goal(0)


def test_empty_round_rejected():
    with pytest.raises(ConfigError):
        generate_round_trace([], {}, make_rng(0, "x"))


def test_concurrent_arrivals():
    assert concurrent_arrivals(5) == [0.0] * 5
    jittered = concurrent_arrivals(5, jitter=2.0, rng=make_rng(6, "j"))
    assert len(jittered) == 5
    assert all(0 <= t <= 2.0 for t in jittered)
    assert jittered == sorted(jittered)
    with pytest.raises(ConfigError):
        concurrent_arrivals(0)


def test_staggered_arrivals():
    times = staggered_arrivals(5, 8.0)
    assert times == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert staggered_arrivals(1, 10.0) == [0.0]
    with pytest.raises(ConfigError):
        staggered_arrivals(3, -1.0)


def test_poisson_arrivals_rate():
    times = poisson_arrivals(rate=10.0, horizon=100.0, rng=make_rng(7, "p"))
    assert all(0 < t < 100.0 for t in times)
    assert times == sorted(times)
    assert len(times) == pytest.approx(1000, rel=0.15)
    with pytest.raises(ConfigError):
        poisson_arrivals(0.0, 1.0, make_rng(0, "x"))
