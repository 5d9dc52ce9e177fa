"""Discrete-event kernel: events, processes, conditions, determinism."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Interrupt


def test_timeout_advances_clock(env):
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]


def test_timeout_rejects_negative_delay(env):
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_processes_interleave_in_time_order(env):
    trace = []

    def p(name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(p("b", 2.0))
    env.process(p("a", 1.0))
    env.process(p("c", 3.0))
    env.run()
    assert trace == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_break_by_scheduling_order(env):
    trace = []

    def p(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abc":
        env.process(p(name))
    env.run()
    assert trace == ["a", "b", "c"]


def test_process_return_value_via_run_until(env):
    def p():
        yield env.timeout(2.0)
        return "result"

    proc = env.process(p())
    assert env.run(until=proc) == "result"


def test_waiting_on_another_process(env):
    def child():
        yield env.timeout(3.0)
        return 21

    def parent():
        value = yield env.process(child())
        return value * 2

    proc = env.process(parent())
    assert env.run(until=proc) == 42
    assert env.now == 3.0


def test_event_succeed_delivers_value(env):
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    env.process(waiter())
    ev.succeed("payload")
    env.run()
    assert got == ["payload"]


def test_event_cannot_trigger_twice(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter(env):
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_interrupt_wakes_blocked_process(env):
    events = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            events.append((env.now, i.cause))

    proc = env.process(sleeper())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt("replan")

    env.process(killer())
    env.run()
    assert events == [(5.0, "replan")]


def test_interrupt_after_completion_is_noop(env):
    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    proc.interrupt("late")  # must not raise
    env.run()


def test_interrupt_while_waiting_on_processed_event(env):
    """Yielding an already-processed event commits an immediate resume; a
    same-instant interrupt cannot revoke it (ties break by insertion order,
    and the resume was scheduled first).  The value is delivered, and the
    late interrupt is a no-op once the process has finished."""
    done = env.timeout(1.0, "early")
    events = []

    def late_waiter():
        yield env.timeout(5.0)
        try:
            yield done  # already processed at t=1 → immediate-resume path
            events.append((env.now, "value"))
        except Interrupt as i:  # pragma: no cover - documents the non-path
            events.append((env.now, i.cause))

    proc = env.process(late_waiter())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt("preempt")

    env.process(killer())
    env.run()
    assert events == [(5.0, "value")]
    assert not proc.is_alive


def test_interrupt_after_processed_event_hits_next_wait(env):
    """If the process keeps running after consuming an already-processed
    event, a same-instant interrupt lands at its next wait point."""
    done = env.timeout(1.0, "early")
    events = []

    def late_waiter():
        yield env.timeout(5.0)
        value = yield done  # immediate resume with the stored value
        events.append((env.now, value))
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            events.append((env.now, i.cause))

    proc = env.process(late_waiter())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt("preempt")

    env.process(killer())
    env.run()
    assert events == [(5.0, "early"), (5.0, "preempt")]


def test_double_interrupt_delivers_both(env):
    """Two interrupts at the same instant: the first wakes the process; a
    process that resumes waiting can be interrupted again."""
    causes = []

    def sleeper():
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                causes.append((env.now, i.cause))

    proc = env.process(sleeper())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt("first")
        proc.interrupt("second")

    env.process(killer())
    env.run()
    assert causes == [(5.0, "first"), (5.0, "second")]


def test_double_interrupt_after_finish_is_noop(env):
    """A second interrupt arriving after the process already finished (the
    first one let it run to completion) must be swallowed."""
    causes = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            causes.append(i.cause)  # then return: process finishes

    proc = env.process(sleeper())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt("first")
        proc.interrupt("second")  # process will be finished when this fires

    env.process(killer())
    env.run()
    assert causes == ["first"]
    assert not proc.is_alive


def test_all_of_waits_for_every_event(env):
    t1, t2 = env.timeout(1.0, "a"), env.timeout(4.0, "b")
    done = []

    def waiter():
        results = yield env.all_of([t1, t2])
        done.append((env.now, sorted(results.values())))

    env.process(waiter())
    env.run()
    assert done == [(4.0, ["a", "b"])]


def test_run_until_time_stops_clock_exactly(env):
    def p():
        while True:
            yield env.timeout(1.0)

    env.process(p())
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_deadlock_detected(env):
    ev = env.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_run_until_event_propagates_failure(env):
    """run(until=ev) re-raises the exception a failed `until` event carries."""
    ev = env.event()

    def failer():
        yield env.timeout(2.0)
        ev.fail(RuntimeError("round collapsed"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="round collapsed"):
        env.run(until=ev)
    assert env.now == 2.0


def test_run_until_failed_process_propagates(env):
    """A process that raises fails its own Process event; run(until=proc)
    surfaces that exception to the caller."""

    def crasher():
        yield env.timeout(1.0)
        raise ValueError("bad plan")

    proc = env.process(crasher())
    with pytest.raises(ValueError, match="bad plan"):
        env.run(until=proc)


def test_yielding_non_event_is_an_error(env):
    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_in_past_rejected(env):
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_waiting_on_already_processed_event(env):
    ev = env.timeout(1.0, "x")
    got = []

    def late_waiter():
        yield env.timeout(5.0)
        value = yield ev  # processed long ago
        got.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert got == [(5.0, "x")]
