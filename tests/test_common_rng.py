"""Deterministic RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.rng import RngRegistry, make_rng


@pytest.mark.parametrize(
    "seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5, 2**130, True, np.int64(7)]
)
@pytest.mark.parametrize(
    "stream",
    ["", "x", "participants:0:17", "participants:tenant-a:239", "avail:mobile-0001", "région-é"],
)
def test_make_rng_matches_numpy_spawn_key_construction(seed, stream):
    # make_rng assembles SeedSequence's entropy itself; this pins it to
    # numpy's own construction so a change in numpy's seeding fails here.
    ref = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(stream.encode())))
    )
    assert make_rng(seed, stream).bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("stream", ["", "x"])
def test_make_rng_rejects_what_seed_sequence_rejects(stream):
    with pytest.raises(ValueError):
        make_rng(-1, stream)
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            make_rng(bad, stream)


def test_same_seed_same_stream_is_deterministic():
    a = make_rng(42, "clients").standard_normal(8)
    b = make_rng(42, "clients").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_different_streams_are_decorrelated():
    a = make_rng(42, "clients").standard_normal(8)
    b = make_rng(42, "training").standard_normal(8)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = make_rng(1, "x").standard_normal(8)
    b = make_rng(2, "x").standard_normal(8)
    assert not np.allclose(a, b)


def test_registry_memoizes_streams():
    reg = RngRegistry(7)
    s1 = reg.stream("alpha")
    s2 = reg.stream("alpha")
    assert s1 is s2


def test_registry_streams_independent_of_creation_order():
    r1 = RngRegistry(7)
    r2 = RngRegistry(7)
    _ = r1.stream("first")
    a = r1.stream("second").standard_normal(4)
    b = r2.stream("second").standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_fork_changes_seed_deterministically():
    a = RngRegistry(7).fork("trial0")
    b = RngRegistry(7).fork("trial0")
    c = RngRegistry(7).fork("trial1")
    assert a.seed == b.seed
    assert a.seed != c.seed
