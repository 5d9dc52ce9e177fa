"""Policy registry mechanics, knob resolution, and error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import RngRegistry
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.policies import (
    DEFAULTS,
    POLICIES,
    AdmissionContext,
    Policy,
    PolicyRegistry,
    SelectionContext,
    SelectionPolicy,
    policy,
    resolve_policy,
)
from repro.traces.models import availability_trace, poisson_trace
from repro.traces.replay import ReplayConfig, TraceReplayEngine
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

NODES = [f"node{i}" for i in range(4)]


def _platform(**overrides) -> AggregationPlatform:
    return AggregationPlatform(PlatformConfig.lifl(**overrides), node_names=NODES)


# ------------------------------------------------------------------ registry
def test_registry_catalogue_has_every_ported_policy():
    assert POLICIES.families() == [
        "selection",
        "placement",
        "admission",
        "recovery",
        "ingress",
    ]
    # The conformance suite imports examples/custom_policy.py, which adds
    # "freshest-first" — the built-in selection catalogue must be there
    # regardless of whether that import happened first.
    selection = [n for n in POLICIES.names("selection") if n != "freshest-first"]
    assert selection == [
        "availability-aware",
        "population",
        "random",
    ]
    assert POLICIES.names("placement") == ["bestfit", "firstfit", "worstfit"]
    assert POLICIES.names("admission") == [
        "bounded-queue",
        "defer-with-deadline",
        "drop-head",
        "drop-tail",
    ]
    assert POLICIES.names("recovery") == ["abort-fast", "shrink-or-abort"]
    # tests/test_core_stages.py registers a "free-ingress" variant
    ingress = [n for n in POLICIES.names("ingress") if n != "free-ingress"]
    assert ingress == ["broker-sf", "broker-sl", "gateway", "gateway-coalesced"]
    for family, name in DEFAULTS.items():
        assert name in POLICIES.names(family)


def test_create_stamps_family_and_name():
    instance = POLICIES.create("admission", "drop-head")
    assert (instance.family, instance.name) == ("admission", "drop-head")


def test_unknown_policy_name_lists_available():
    with pytest.raises(ConfigError) as err:
        POLICIES.create("selection", "round-robin")
    message = str(err.value)
    assert "round-robin" in message
    for name in POLICIES.names("selection"):
        assert name in message


def test_duplicate_registration_raises():
    fresh = PolicyRegistry()
    fresh.register("admission", "x", Policy)
    with pytest.raises(ConfigError, match="already registered"):
        fresh.register("admission", "x", Policy)


def test_unknown_family_and_empty_name_refuse_registration():
    fresh = PolicyRegistry()
    with pytest.raises(ConfigError, match="unknown policy family"):
        fresh.register("scheduling", "x", Policy)
    with pytest.raises(ConfigError, match="non-empty name"):
        fresh.register("admission", "", Policy)


def test_resolve_empty_name_lands_on_default_and_binds_stream():
    rngs = RngRegistry(7)
    resolved = resolve_policy("admission", rngs=rngs)
    assert resolved.name == DEFAULTS["admission"]
    assert resolved.rng is rngs.stream("policy:admission:bounded-queue")
    # Without a registry the policy carries no stream.
    assert resolve_policy("admission").rng is None


# ------------------------------------------------------------- knob plumbing
def _replay(config: ReplayConfig, seed: int = 3, **kwargs) -> TraceReplayEngine:
    trace = poisson_trace(20.0, 60.0, seed=seed)
    return TraceReplayEngine(_platform(), trace, config, seed=seed, **kwargs)


def _mobile_inputs(seed: int = 3):
    population = make_population(24, profile=MOBILE_PROFILE, seed=seed)
    avail = availability_trace(
        24, 60.0, seed=seed, prefix=MOBILE_PROFILE.name
    )
    from repro.fl.selector import Selector, SelectorConfig

    selector = Selector(SelectorConfig(aggregation_goal=4, over_provision=1.25))
    return dict(
        availability=avail,
        weights=population.weights(),
        selector=selector,
        clients=population.clients,
    )


def test_selection_default_derives_from_inputs():
    assert _replay(ReplayConfig())._selection.name == "random"
    assert (
        _replay(ReplayConfig(), **_mobile_inputs())._selection.name
        == "availability-aware"
    )


def test_unknown_selection_knob_raises_with_catalogue():
    with pytest.raises(ConfigError, match="unknown selection policy"):
        _replay(ReplayConfig(selection_policy="best-effort"))


def test_population_selection_without_population_raises():
    with pytest.raises(ConfigError, match="population"):
        _replay(ReplayConfig(selection_policy="population"))


def test_availability_aware_selection_without_selector_raises():
    with pytest.raises(ConfigError, match="availability-aware"):
        _replay(ReplayConfig(selection_policy="availability-aware"))


def _assert_matches_reference(policy, inputs, at: float, seed: int = 5) -> list[str]:
    """The policy's picks equal ``Selector.select_available`` over the
    clients with a per-id ``is_available`` predicate, and the two paths
    leave the round's stream in the same state."""
    avail = inputs["availability"]
    r_ref, r_got = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = inputs["selector"].select_available(
        inputs["clients"], r_ref, lambda cid: avail.is_available(cid, at)
    )
    ctx = SelectionContext(at=at, tenant=0, round_id=0, round_updates=4, **inputs)
    got = policy.select(ctx, r_got)
    assert got == [c.client_id for c in ref]
    assert r_got.bit_generator.state == r_ref.bit_generator.state
    return got


def _sized_clients(clients, seed: int = 0):
    """Copies of ``clients`` whose ``num_samples`` differ (10..500)."""
    from repro.fl.client import FLClient
    from repro.fl.datasets import ClientShard

    sizes = np.random.default_rng(seed).integers(10, 500, size=len(clients))
    return [
        FLClient(
            c.config,
            c.spec,
            shard=ClientShard(c.client_id, np.zeros((n, 1), np.float32), np.zeros(n, np.int64)),
        )
        for c, n in zip(clients, sizes)
    ]


def test_availability_aware_selection_matches_is_available_reference():
    inputs = _mobile_inputs()
    policy = POLICIES.create("selection", "availability-aware")
    # One instance across many instants: the client index is built once
    # and reused.
    for at in np.linspace(0.0, 59.9, 24):
        _assert_matches_reference(policy, inputs, float(at))


def test_availability_aware_selection_diverse_matches_reference():
    from repro.fl.selector import Selector, SelectorConfig

    inputs = _mobile_inputs()
    inputs["clients"] = _sized_clients(inputs["clients"])
    assert len({c.num_samples for c in inputs["clients"]}) > 1
    inputs["selector"] = Selector(
        SelectorConfig(aggregation_goal=4, over_provision=1.25, diversity="diverse")
    )
    policy = POLICIES.create("selection", "availability-aware")
    for at in (0.0, 17.5, 42.0, 59.9):
        _assert_matches_reference(policy, inputs, at)


def test_availability_aware_selection_reads_unknown_ids_as_down():
    from repro.fl.client import ClientConfig, FLClient

    inputs = _mobile_inputs()
    known = inputs["clients"][0]
    stranger = FLClient(ClientConfig(client_id="not-in-trace"), known.spec)
    inputs["clients"] = [stranger, *inputs["clients"], stranger]
    policy = POLICIES.create("selection", "availability-aware")
    for at in (0.0, 17.5, 42.0, 59.9):
        assert "not-in-trace" not in _assert_matches_reference(policy, inputs, at)


def test_availability_aware_selection_empty_instant_is_unformable():
    inputs = _mobile_inputs()
    avail = inputs["availability"]
    policy = POLICIES.create("selection", "availability-aware")
    # Past the horizon nobody is up.
    assert not avail.available_mask(1e9).any()
    assert _assert_matches_reference(policy, inputs, 1e9) == []


def test_availability_aware_selection_rebuilds_index_when_windows_change():
    inputs = _mobile_inputs()
    avail = inputs["availability"]
    policy = POLICIES.create("selection", "availability-aware")
    before = _assert_matches_reference(policy, inputs, 30.0)
    # Same client count, different windows and a different id set: only
    # a rebuilt index reads the new rows.
    ids = sorted(avail.windows)
    avail.windows = {
        **{cid: ((0.0, 60.0),) for cid in ids[::2]},
        **{f"zz-{i}": ((0.0, 60.0),) for i in range(len(ids) - len(ids[::2]))},
    }
    after = _assert_matches_reference(policy, inputs, 30.0)
    assert set(after) <= set(ids[::2])
    assert after != before


def test_unknown_admission_knob_raises():
    with pytest.raises(ConfigError, match="unknown admission policy"):
        _replay(ReplayConfig(admission_policy="lottery"))


def test_unknown_placement_policy_raises():
    with pytest.raises(ConfigError, match="unknown placement policy"):
        _platform(placement_policy="scatter")


def test_unknown_recovery_policy_raises():
    with pytest.raises(ConfigError, match="unknown recovery policy"):
        resolve_policy("recovery", "retry-forever")


# ------------------------------------------------------- behaviour under load
OVERLOAD = ReplayConfig(
    round_updates=4, max_inflight=1, queue_limit=2, slo_target_s=10.0
)


def test_drop_head_evicts_oldest_not_newest():
    """Head drop rejects exactly as many rounds as tail drop under the
    same workload, but the evicted rounds are the older arrivals."""
    tail = _replay(OVERLOAD).run().row()
    head = _replay(
        ReplayConfig(**{**OVERLOAD.__dict__, "admission_policy": "drop-head"})
    ).run().row()
    assert head["rounds"] == tail["rounds"]
    assert head["rejected"] > 0
    # Same conservation: every arrival still reaches a terminal outcome.
    assert (
        head["completed"] + head["rejected"] + head["aborted"]
        == head["rounds"]
    )


def test_standalone_defer_shows_controller_columns_and_conserves():
    row = _replay(
        ReplayConfig(
            **{
                **OVERLOAD.__dict__,
                "admission_policy": "defer-with-deadline",
                "defer_deadline_s": 6.0,
            }
        )
    ).run().row()
    assert "shed" in row and "deferred" in row
    assert row["completed"] + row["rejected"] + row["aborted"] + row["shed"] == row["rounds"]
    # No controller: the plain bounded-queue row keeps its original shape.
    plain = _replay(OVERLOAD).run().row()
    assert "shed" not in plain and "deferred" not in plain


def test_cost_tracking_is_opt_in():
    cfg = ReplayConfig(**{**OVERLOAD.__dict__, "track_cost": True})
    row = _replay(cfg).run().row()
    assert row["cost_cpu_s"] > 0
    assert row["attainment_per_cost"] == pytest.approx(
        row["slo_attainment"] / row["cost_cpu_s"], rel=1e-6
    )
    assert "cost_cpu_s" not in _replay(OVERLOAD).run().row()


# --------------------------------------------------- rogue-RNG determinism
def test_policy_drawing_global_rng_breaks_seeded_replay():
    """A policy that draws from the global NumPy RNG instead of its
    injected stream is caught by replaying the same seed twice: the rows
    must be byte-identical, and with a rogue policy they are not."""

    @policy("selection", "rogue-global-rng")
    class RogueSelection(SelectionPolicy):
        def select(self, ctx, rng):
            k = 1 + int(np.random.random() * ctx.round_updates)
            return [f"synth-{i}" for i in range(k)]

    try:
        cfg = ReplayConfig(
            round_updates=4, max_inflight=2, queue_limit=4,
            selection_policy="rogue-global-rng",
        )
        rows = [_replay(cfg, seed=11).run().row() for _ in range(2)]
        assert rows[0] != rows[1], "global-RNG draws went undetected"
        # The well-behaved default is reproducible under the same harness.
        good = [_replay(ReplayConfig(), seed=11).run().row() for _ in range(2)]
        assert good[0] == good[1]
    finally:
        del POLICIES._factories[("selection", "rogue-global-rng")]


def test_admission_context_is_frozen():
    ctx = AdmissionContext(tenant=0, queue_len=1, queue_limit=2, now=0.0)
    with pytest.raises(AttributeError):
        ctx.queue_len = 5
