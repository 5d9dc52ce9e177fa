"""Struct-of-arrays population: byte-parity with the per-object path.

The contracts :mod:`repro.fl.population` promises (its module docstring):

* generation parity — ``ClientPopulation.generate`` reproduces
  ``make_population``'s speeds/sample counts draw for draw;
* draw parity — batched timing draws equal a loop of per-object
  ``FLClient`` calls against an identically-seeded generator;
* selection parity — ``Selector.select_population`` picks the same
  clients, in the same order, as ``select_available`` over the
  equivalent client list + availability trace;
* availability parity — CSR masks agree with the per-id window dict,
  and ``AvailabilityTrace``'s own vectorized mask/``available()`` fast
  path agrees with its scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.traces.models import AvailabilityTrace, availability_trace
from repro.workloads.fedscale import MOBILE_PROFILE, SERVER_PROFILE, make_population


def _pop_pair(n: int, seed: int, profile=MOBILE_PROFILE, horizon: float = 0.0):
    pop = ClientPopulation.generate(n, profile=profile, seed=seed, horizon=horizon)
    ref = make_population(n, profile=profile, seed=seed)
    return pop, ref


def _window_trace(pop: ClientPopulation) -> AvailabilityTrace:
    """The population's CSR windows as a per-id ``AvailabilityTrace``."""
    off = pop.win_offsets
    return AvailabilityTrace(horizon=pop.horizon, windows={
        pop.client_id(i): tuple(zip(
            pop.win_start[off[i] : off[i + 1]].tolist(), pop.win_end[off[i] : off[i + 1]].tolist()
        ))
        for i in range(pop.size)
    })


# ---- generation parity ----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2**20))
def test_generate_matches_make_population(n: int, seed: int) -> None:
    pop, ref = _pop_pair(n, seed)
    assert np.array_equal(
        pop.speed_factors, np.array([c.config.speed_factor for c in ref.clients])
    )
    assert np.array_equal(
        pop.num_samples, np.array([ref.sample_counts[c.client_id] for c in ref.clients])
    )
    assert pop.ids() == [c.client_id for c in ref.clients]
    assert pop.hibernate_max == MOBILE_PROFILE.hibernate_max


def test_generate_server_profile_always_on() -> None:
    pop, ref = _pop_pair(50, seed=3, profile=SERVER_PROFILE)
    assert pop.hibernate_max == 0.0
    assert np.array_equal(
        pop.speed_factors, np.array([c.config.speed_factor for c in ref.clients])
    )
    # no windows -> always available
    assert pop.available_mask(123.0).all()


# ---- draw parity ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(0, 2**20),
    draw_seed=st.integers(0, 2**20),
)
def test_batched_draws_match_per_object_flclient(n, seed, draw_seed) -> None:
    pop, ref = _pop_pair(n, seed)
    idx = np.arange(n)
    r_vec, r_obj = make_rng(draw_seed, "t"), make_rng(draw_seed, "t")
    assert np.array_equal(
        pop.training_durations(r_vec, idx),
        np.array([c.training_duration(r_obj) for c in ref.clients]),
    )
    r_vec, r_obj = make_rng(draw_seed, "h"), make_rng(draw_seed, "h")
    assert np.array_equal(
        pop.hibernations(r_vec, idx),
        np.array([c.hibernation(r_obj) for c in ref.clients]),
    )


def test_always_on_hibernations_consume_no_stream() -> None:
    pop, _ = _pop_pair(20, seed=1, profile=SERVER_PROFILE)
    rng = make_rng(0, "x")
    before = rng.bit_generator.state
    assert not pop.hibernations(rng, np.arange(20)).any()
    assert rng.bit_generator.state == before


# ---- selection parity -----------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    goal=st.integers(min_value=1, max_value=60),
    seed=st.integers(0, 2**20),
    diversity=st.sampled_from(["uniform", "diverse"]),
)
def test_select_population_matches_select_available(n, goal, seed, diversity) -> None:
    pop, ref = _pop_pair(n, seed, horizon=400.0)
    if diversity == "diverse":
        # the per-object path reads FLClient.num_samples (1 without a
        # shard), so cross-path parity only holds for uniform selection;
        # exercise the diverse path against a manual pool instead
        sel = Selector(SelectorConfig(aggregation_goal=goal, diversity="diverse"))
        mask = pop.available_mask(10.0)
        if not mask.any():
            return
        r1, r2 = make_rng(seed, "s"), make_rng(seed, "s")
        picked = sel.select_population(pop, r1, mask)
        pool = np.flatnonzero(mask)
        w = np.maximum(1, pop.num_samples[pool]).astype(float)
        want = min(sel.target_count(), pool.size)
        expect = pool[r2.choice(pool.size, size=want, replace=False, p=w / w.sum())]
        assert np.array_equal(picked, expect)
        return
    sel = Selector(SelectorConfig(aggregation_goal=goal, over_provision=1.0))
    trace = _window_trace(pop)
    at = 10.0
    r1, r2 = make_rng(seed, "s"), make_rng(seed, "s")
    picked = sel.select_population(pop, r1, pop.available_mask(at))
    chosen = sel.select_available(ref.clients, r2, lambda cid: trace.is_available(cid, at))
    assert [pop.client_id(int(i)) for i in picked] == [c.client_id for c in chosen]


def test_select_population_empty_pool_is_unformable_round() -> None:
    pop, _ = _pop_pair(10, seed=2, horizon=50.0)
    picked = Selector(SelectorConfig(aggregation_goal=4)).select_population(
        pop, make_rng(0, "s"), np.zeros(10, dtype=bool)
    )
    assert picked.size == 0


# ---- availability parity --------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    seed=st.integers(0, 2**20),
    at=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_available_mask_matches_window_dict(n, seed, at) -> None:
    pop = ClientPopulation.generate(n, seed=seed, horizon=450.0)
    trace = _window_trace(pop)
    expect = np.array([trace.is_available(pop.client_id(i), at) for i in range(n)])
    assert np.array_equal(pop.available_mask(at), expect)


def test_windows_cover_horizon_and_are_sorted() -> None:
    pop = ClientPopulation.generate(300, seed=9, horizon=800.0)
    off = pop.win_offsets
    assert off[-1] == pop.total_windows
    for i in range(pop.size):
        s = pop.win_start[off[i] : off[i + 1]]
        e = pop.win_end[off[i] : off[i + 1]]
        assert (e >= s).all()
        assert (s[1:] >= e[:-1]).all()  # disjoint, time-ordered
        assert (e <= 800.0).all()


def test_next_events_are_strictly_future_boundaries() -> None:
    pop = ClientPopulation.generate(120, seed=4, horizon=300.0)
    at = 42.0
    ne = pop.next_events(at)
    off = pop.win_offsets
    for i in range(pop.size):
        bounds = sorted(
            set(pop.win_start[off[i] : off[i + 1]]) | set(pop.win_end[off[i] : off[i + 1]])
        )
        expect = next((b for b in bounds if b > at), np.inf)
        assert ne[i] == expect


def test_advance_refreshes_state_arrays() -> None:
    pop = ClientPopulation.generate(60, seed=6, horizon=200.0)
    pop.advance(33.0)
    assert np.array_equal(pop.state.astype(bool), pop.available_mask(33.0))
    assert (pop.next_event_at[np.isfinite(pop.next_event_at)] > 33.0).all()


def test_availability_trace_vectorized_available_matches_loop() -> None:
    for n_clients in (50, 600):
        trace = availability_trace(n_clients, horizon=250.0, seed=8)
        for at in (0.0, 60.0, 249.9, 400.0):
            fast = trace.available(at)
            slow = [cid for cid in trace.client_ids if trace.is_available(cid, at)]
            assert fast == slow
            mask = trace.available_mask(at)
            assert [trace.client_ids[int(i)] for i in np.flatnonzero(mask)] == slow


def test_availability_trace_index_tracks_added_clients() -> None:
    trace = availability_trace(50, horizon=250.0, seed=8)
    before = trace.available(60.0)
    trace.windows["zz-late"] = ((0.0, 250.0),)
    assert trace.available(60.0) == before + ["zz-late"]
    trace.windows = {"solo": ((50.0, 70.0),)}
    assert trace.available(60.0) == ["solo"]
    assert trace.available(80.0) == []


def test_generate_rejects_bad_inputs() -> None:
    with pytest.raises(ConfigError):
        ClientPopulation.generate(0)
