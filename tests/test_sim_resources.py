"""Resource and Store semantics."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.resources import Resource, Store


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    order = []

    def user(name, hold):
        req = res.request()
        yield req
        order.append((name, env.now))
        yield env.timeout(hold)
        res.release(req)

    for name, hold in [("a", 5.0), ("b", 5.0), ("c", 1.0)]:
        env.process(user(name, hold))
    env.run()
    # c waits for a slot: granted when a or b releases at t=5
    assert order == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_queue(env):
    res = Resource(env, capacity=1)
    granted = []

    def user(name):
        req = res.request()
        yield req
        granted.append(name)
        yield env.timeout(1.0)
        res.release(req)

    for name in "abcd":
        env.process(user(name))
    env.run()
    assert granted == list("abcd")


def test_resource_capacity_validation(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_release_of_queued_request_cancels_it(env):
    res = Resource(env, capacity=1)
    held = res.request()
    assert held.triggered
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel while waiting
    res.release(held)
    assert res.count == 0


def test_store_fifo_order(env):
    store = Store(env)
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(consumer())
    for item in ("x", "y", "z"):
        store.put(item)
    env.run()
    assert received == ["x", "y", "z"]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(3.0)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(3.0, "late")]


def test_store_try_get_nonblocking(env):
    store = Store(env)
    assert store.try_get() is None
    store.put("a")
    env.run()
    assert store.try_get() == "a"
    assert store.try_get() is None


def test_store_bounded_capacity_blocks_putter(env):
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("one")
        times.append(env.now)
        yield store.put("two")  # blocks until consumer takes "one"
        times.append(env.now)

    def consumer():
        yield env.timeout(4.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [0.0, 4.0]
