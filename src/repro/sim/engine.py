"""Core of the discrete-event engine: events, processes, the environment.

Design notes
------------
The engine is deliberately minimal but complete for our workloads:

* **Events** carry callbacks and a value; they are *triggered* (scheduled)
  then *processed* (callbacks run) at their scheduled time.
* **Processes** wrap generators.  A process waits on whatever event it
  yields; when that event fires, the event's value is sent back into the
  generator.  Raising :class:`Interrupt` into a process models preemption.
  They run the once-per-round or once-per-tick bodies (replay dispatch,
  controller ticks, chaos timelines, recovery sweeps, arrival walkers).
* **Callback flows** run what happens per update or per aggregator
  instance (ingress, inter-node hops, the Recv/Agg loop; see
  :mod:`repro.core.roundsim` and :mod:`repro.core.aggregator`).  Each is
  a step machine that appends its continuation to the event it waits
  for — the kernel simply fires events to registrants — and pays no
  generator resume, type check or per-wait process bookkeeping.  To keep
  same-instant tie order identical to a process, a flow pushes exactly
  the events a process would: one start event when spawned and one wake
  event per interrupt.  (A process waiting on an already-processed event
  pushes one immediate event; no flow ever waits on one.)
* **Determinism**: ties in time are broken by insertion order, so repeated
  runs with the same seed produce identical traces — required for the
  experiment harness to be reproducible.
* **Allocation discipline**: the hot path (schedule → pop → resume) avoids
  throwaway objects.  A process reuses one preallocated event for the
  already-processed-target resume; interrupts wake through a slotted event
  instead of a closure; superseded timers are *cancelled* lazily (skipped
  when popped) rather than processed as dead no-ops.
* **Telemetry**: every environment counts its own heap traffic (see
  :mod:`repro.perf.counters`); the counters are plain ints and always on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError
from repro.perf.counters import maybe_register

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A happening-at-a-point-in-time that processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value accessed before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value accessed before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # _schedule(), inlined: succeed() is the second-hottest way onto
        # the queue after Timeout.
        env = self.env
        env._eid += 1
        queue = env._queue
        heapq.heappush(queue, (env._now, env._eid, self))
        depth = len(queue)
        if depth > env.peak_queue_depth:
            env.peak_queue_depth = depth
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    # Timeouts are the single most common event; the constructor is written
    # flat (no super() chain, scheduling inlined) to keep the per-wait cost
    # down.
    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.delay = delay
        env._eid += 1
        queue = env._queue
        heapq.heappush(queue, (env._now + delay, env._eid, self))
        depth = len(queue)
        if depth > env.peak_queue_depth:
            env.peak_queue_depth = depth


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", delay: float = 0.0) -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        env._eid += 1
        queue = env._queue
        heapq.heappush(queue, (env._now + delay, env._eid, self))
        depth = len(queue)
        if depth > env.peak_queue_depth:
            env.peak_queue_depth = depth


class _Immediate(Event):
    """A process-private event used to resume after yielding an
    already-processed target.  One per process, reused between waits."""

    __slots__ = ()

    def reset(self) -> None:
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False


class _InterruptWake(Event):
    """Schedules interrupt delivery without allocating a closure."""

    __slots__ = ("_process", "_cause")

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self._process = process
        self._cause = cause
        self.callbacks.append(self._fire)
        env._schedule(self)

    def _fire(self, _: Event) -> None:
        proc = self._process
        if proc._triggered:
            return  # finished before the wake fired
        # A delay-started process may be interrupted before its Initialize
        # fired; retire the pending start so it cannot re-step the process
        # after the interrupt finishes it.
        init = proc._initialize
        if init is not None and not init._processed and not init._cancelled:
            proc.env.cancel(init)
        # Detach from whatever event it was waiting on.
        target = proc._target
        if target is not None and proc._resume in target.callbacks:
            target.callbacks.remove(proc._resume)
        proc._step(Interrupt(self._cause), True)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_generator", "_target", "_immediate", "_initialize", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = "", delay: float = 0.0
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {type(generator)!r}")
        if delay < 0:
            raise SimulationError(f"negative process start delay: {delay}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._immediate: Optional[_Immediate] = None
        self.name = name or getattr(generator, "__name__", "process")
        self._initialize: Optional[Initialize] = Initialize(env, self, delay)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return  # already finished; interruption is a no-op
        _InterruptWake(self.env, self, cause)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # finished (e.g. interrupted before a delayed start)
        self._target = None
        if event._ok:
            self._step(event._value, False)
        else:
            event._defused = True
            self._step(event._value, True)

    def _finish(self) -> None:
        """Complete the process synchronously.

        A finished process used to schedule itself as a terminal event and
        become *processed* one queue pop later (same instant).  That pop
        was pure overhead — one dead heap entry per process — so
        completion now happens inline: waiters resume within the current
        event step, and an unhandled failure propagates immediately.
        """
        self._triggered = True
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def _step(self, value: Any, throw: bool) -> None:
        env = self.env
        try:
            if throw:
                exc = value if isinstance(value, BaseException) else SimulationError(str(value))
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self._finish()
            return
        except BaseException as exc:  # propagate failure to waiters
            self._ok = False
            self._value = exc
            self._finish()
            return
        if not isinstance(target, Event):
            raise SimulationError(f"process {self.name!r} yielded non-event {target!r}")
        if target.env is not env:
            raise SimulationError("process yielded an event from a different environment")
        if target._processed:
            # Waiting on an already-processed event resumes immediately.
            # Reuse the process's dedicated resume event when it is free
            # (i.e. fully consumed by a previous wait); a fresh one is only
            # allocated when the reusable event is still in the heap.
            imm = self._immediate
            if imm is None or (imm._triggered and not imm._processed):
                imm = self._immediate = _Immediate(env)
            else:
                imm.reset()
                env.immediate_reuses += 1
            imm._ok = target._ok
            imm._value = target._value
            imm.callbacks = [self._resume]
            env._schedule(imm)
            self._target = imm
        else:
            target.callbacks.append(self._resume)
            self._target = target


class AllOf(Event):
    """Fires when every child event has fired; value maps event -> value."""

    __slots__ = ("events", "_completed")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._completed = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._completed += 1
        if self._completed == len(self.events):
            self.succeed({ev: ev._value for ev in self.events if ev._processed})


class Environment:
    """The simulation clock plus the pending-event queue."""

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "dead_timer_skips",
        "timers_cancelled",
        "immediate_reuses",
        "peak_queue_depth",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        # -- engine telemetry (see repro.perf.counters) -------------------
        # Only counters the hot path cannot derive are maintained as
        # attributes; heap pushes/pops and events processed fall out of
        # ``_eid`` and the queue length (every schedule pushes exactly one
        # entry, and every popped entry is either processed or dead).
        self.dead_timer_skips = 0
        self.timers_cancelled = 0
        self.immediate_reuses = 0
        self.peak_queue_depth = 0
        maybe_register(self)

    @property
    def now(self) -> float:
        return self._now

    # -- telemetry (derived; see repro.perf.counters) --------------------
    @property
    def heap_pushes(self) -> int:
        return self._eid

    @property
    def heap_pops(self) -> int:
        return self._eid - len(self._queue)

    @property
    def events_processed(self) -> int:
        return self.heap_pops - self.dead_timer_skips

    # -- factory helpers -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "", delay: float = 0.0) -> Process:
        """Spawn a process; ``delay`` defers its start without the cost of
        an extra leading timeout event."""
        return Process(self, generator, name=name, delay=delay)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._triggered:
            raise SimulationError("event scheduled twice")
        event._triggered = True
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, self._eid, event))
        depth = len(queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled event.

        The entry stays in the heap; when popped it is skipped without
        running callbacks (counted as a ``dead_timer_skip``).  Only
        triggered, not-yet-processed events can be cancelled — this is how
        resources and links retire superseded timers instead of letting
        them rot in the queue.
        """
        if not event._triggered or event._processed:
            raise SimulationError("cancel() needs a scheduled, unprocessed event")
        if not event._cancelled:
            event._cancelled = True
            self.timers_cancelled += 1

    def peek(self) -> float:
        """Time of the next live scheduled event, or +inf when idle."""
        queue = self._queue
        while queue and queue[0][2]._cancelled:
            heapq.heappop(queue)
            self.dead_timer_skips += 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one live event (advancing the clock to it).

        Cancelled entries encountered on the way are discarded without
        processing; if only cancelled entries remain the queue drains and
        the call returns without advancing the clock.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty queue")
        pop = heapq.heappop
        while True:
            when, _, event = pop(queue)
            if not event._cancelled:
                break
            self.dead_timer_skips += 1
            if not queue:
                return
        self._now = when
        event._processed = True
        # Processed events no longer accept callbacks; dropping the list
        # (instead of swapping in a fresh one) avoids one allocation per
        # event on the hot path.
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a time (run up to and including that instant), an
        :class:`Event` (run until it fires; its value is returned), or
        ``None`` (run to quiescence).
        """
        step = self.step
        queue = self._queue
        if isinstance(until, Event):
            # step(), inlined: this loop is the experiment harness's main
            # loop — every simulated event of a round passes through it.
            stop = until
            pop = heapq.heappop
            while not stop._processed:
                if not queue:
                    raise SimulationError("deadlock: queue empty before `until` event fired")
                when, _, event = pop(queue)
                if event._cancelled:
                    self.dead_timer_skips += 1
                    continue
                self._now = when
                event._processed = True
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        # peek() prunes cancelled heads, so the guard never admits a step
        # whose next *live* event lies beyond the deadline.
        peek = self.peek
        while True:
            next_time = peek()
            if not queue or next_time > deadline:
                break
            step()
        if deadline != float("inf"):
            self._now = deadline
        return None
