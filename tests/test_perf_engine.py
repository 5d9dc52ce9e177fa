"""The allocation-lean engine paths and the repro.perf telemetry."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.cluster.network import ProcessorSharingLink
from repro.perf.counters import EngineCounters, collect
from repro.sim.engine import Environment, Interrupt
from repro.sim.resources import Store


# ---- counters -------------------------------------------------------------------


def test_counters_track_heap_traffic(env):
    def p():
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(p())
    env.run()
    # Initialize + two timeouts + synchronous process completion (no
    # terminal event): three pushes, three pops, three processed.
    assert env.heap_pushes == 3
    assert env.heap_pops == 3
    assert env.events_processed == 3
    assert env.dead_timer_skips == 0
    assert env.peak_queue_depth >= 1


def test_cancel_skips_event_without_processing(env):
    fired = []
    t1 = env.timeout(1.0)
    t1.callbacks.append(lambda e: fired.append("t1"))
    t2 = env.timeout(2.0)
    t2.callbacks.append(lambda e: fired.append("t2"))
    env.cancel(t1)
    env.run()
    assert fired == ["t2"]
    assert not t1.processed
    assert env.dead_timer_skips == 1
    assert env.timers_cancelled == 1
    assert env.events_processed == 1


def test_cancel_rejects_unscheduled_and_processed_events(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        env.cancel(ev)  # never triggered
    t = env.timeout(0.0)
    env.run()
    with pytest.raises(SimulationError):
        env.cancel(t)  # already processed


def test_peek_skips_cancelled_head(env):
    t1 = env.timeout(1.0)
    env.timeout(5.0)
    env.cancel(t1)
    assert env.peek() == pytest.approx(5.0)


def test_collector_aggregates_across_environments():
    with collect() as perf:
        for _ in range(3):
            env = Environment()
            env.timeout(1.0)
            env.run()
    counters = perf.counters()
    assert counters.environments == 3
    assert counters.events_processed == 3
    assert counters.heap_pushes == 3


def test_collector_inactive_means_no_registration():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with collect() as perf:
        pass
    assert perf.counters().environments == 0


def test_counters_from_environment_snapshot(env):
    env.timeout(0.5)
    env.run()
    snap = EngineCounters.from_environment(env)
    assert snap.events_processed == 1
    assert snap.environments == 1


def test_engine_counters_conserve_heap_traffic():
    """Not a timing benchmark: structural check that pushes == pops at
    quiescence and processed+dead == pops, on a mixed workload."""
    env = Environment()

    def worker(i):
        yield env.timeout(i * 0.1)

    for i in range(100):
        env.process(worker(i))
    env.run()
    assert env.heap_pushes == env.heap_pops
    assert env.events_processed + env.dead_timer_skips == env.heap_pops


# ---- allocation-lean process paths ----------------------------------------------


def test_process_completion_is_synchronous_no_terminal_event(env):
    def p():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(p())
    env.run()
    assert proc.processed
    assert proc.value == "done"
    # Initialize + one timeout only: the completion itself pushed nothing.
    assert env.heap_pushes == 2


def test_waiter_resumes_after_synchronous_completion(env):
    trace = []

    def worker():
        yield env.timeout(1.0)
        return 41

    def waiter(proc):
        value = yield proc
        trace.append(value + 1)

    proc = env.process(worker())
    env.process(waiter(proc))
    env.run()
    assert trace == [42]


def test_immediate_event_reused_between_processed_waits(env):
    done = env.timeout(1.0)

    def p():
        yield env.timeout(2.0)  # let `done` process first
        for _ in range(3):
            yield done  # already processed: immediate-resume path

    env.process(p())
    env.run()
    # The first immediate wait allocates the per-process event, the next
    # two reuse it.
    assert env.immediate_reuses == 2


def test_delayed_process_start(env):
    trace = []

    def p():
        trace.append(env.now)
        yield env.timeout(1.0)
        trace.append(env.now)

    env.process(p(), delay=5.0)
    assert trace == []  # not started synchronously
    env.run()
    assert trace == [5.0, 6.0]


def test_negative_process_delay_rejected(env):
    def p():
        yield env.timeout(0.0)

    with pytest.raises(SimulationError):
        env.process(p(), delay=-1.0)


def test_failing_process_still_propagates(env):
    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiter_catches_failure_of_synchronously_finished_process(env):
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def waiter(proc):
        try:
            yield proc
        except ValueError as exc:
            caught.append(str(exc))

    proc = env.process(bad())
    env.process(waiter(proc))
    env.run()
    assert caught == ["boom"]


# ---- store fast paths -----------------------------------------------------------


def test_store_put_nowait_delivers_without_put_event(env):
    store = Store(env)
    pushes_before = env.heap_pushes
    store.put_nowait("a")
    assert env.heap_pushes == pushes_before  # no event scheduled
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()
    assert got == ["a"]


def test_store_put_nowait_wakes_waiting_getter(env):
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()  # consumer parks on the empty store
    store.put_nowait("x")
    env.run()
    assert got == ["x"]


def test_store_put_nowait_full_store_raises(env):
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(SimulationError):
        store.put_nowait("b")


def test_store_get_put_fifo_order_preserved(env):
    store = Store(env)
    for item in ("a", "b", "c"):
        store.put_nowait(item)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(consumer())
    env.run()
    assert got == ["a", "b", "c"]


# ---- dead-timer fix on the PS link ----------------------------------------------


def test_ps_link_cancels_superseded_timers(env):
    """Every arrival retimes the completion timer; the superseded timer
    must be skipped dead, not processed (satellite: dead-timer fix)."""
    link = ProcessorSharingLink(env, capacity_bps=100.0)

    def feeder():
        for _ in range(5):
            link.transfer(1000.0)
            yield env.timeout(1.0)

    env.process(feeder())
    env.run()
    assert link.active_flows == 0
    # 4 of the 5 arrivals superseded a pending timer.
    assert env.timers_cancelled == 4
    assert env.dead_timer_skips == 4
    # Conservation: pops == pushes once the queue drained.
    assert env.heap_pops == env.heap_pushes
    assert env.events_processed == env.heap_pops - env.dead_timer_skips


# ---- review regressions ---------------------------------------------------------


def test_run_until_deadline_ignores_cancelled_head(env):
    """A cancelled entry inside the deadline must not admit processing of a
    live event beyond it (and the clock must never move backwards)."""
    t1 = env.timeout(1.0)
    fired = []
    t10 = env.timeout(10.0)
    t10.callbacks.append(lambda e: fired.append(env.now))
    env.cancel(t1)
    env.run(until=5.0)
    assert fired == []
    assert env.now == 5.0
    env.run()
    assert fired == [10.0]


def test_interrupt_before_delayed_start(env):
    """Interrupting a delay-started process before its start retires the
    pending Initialize; the interrupt fails the process immediately."""
    def p():
        yield env.timeout(1.0)

    proc = env.process(p(), delay=5.0)
    caught = []

    def waiter():
        try:
            yield proc
        except Interrupt as exc:
            caught.append(exc.cause)

    env.process(waiter())
    proc.interrupt("early")
    env.run()
    assert caught == ["early"]
    assert proc.processed
    assert env.now < 5.0 or env.now == 5.0  # no crash at the dead Initialize


def test_yielding_non_event_with_env_attribute_raises_simulation_error(env):
    from repro.sim.resources import Store

    store = Store(env)  # has .env but is not an Event

    def p():
        yield store

    env.process(p())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
