"""Engine telemetry: counters the event kernel maintains, and a collector.

The simulation kernel (:mod:`repro.sim.engine`) counts its own heap
traffic — events processed, heap pushes/pops, dead-timer skips, peak queue
depth, fast-path hits — as plain integer attributes on each
:class:`~repro.sim.engine.Environment` (cheap enough to leave always-on).
This module gives those counters a structured shape and a way to aggregate
them across every environment a piece of code creates:

    with collect() as perf:
        run_cell("LIFL", 900)
    print(perf.counters().as_dict())

The collector is what the campaign runner's ``--profile`` flag and the
``benchmarks/e2e/`` runner use; ``tests/test_perf_engine.py`` reads the
same counters to assert structural properties (e.g. that superseded
processor-sharing timers are skipped dead instead of being processed).

This module must stay import-light: the engine imports it at module load,
so it cannot import anything that (transitively) imports the engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterator

#: counter attributes mirrored 1:1 from ``Environment``
COUNTER_FIELDS = (
    "events_processed",
    "heap_pushes",
    "heap_pops",
    "dead_timer_skips",
    "timers_cancelled",
    "immediate_reuses",
    "peak_queue_depth",
)


@dataclass
class EngineCounters:
    """A snapshot of the engine's self-accounting.

    ``peak_queue_depth`` aggregates as a *max* across environments; every
    other field is a sum.  ``environments`` counts how many environments
    contributed to the snapshot.
    """

    events_processed: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    #: cancelled entries popped and skipped without processing
    dead_timer_skips: int = 0
    #: events lazily cancelled (they stay in the heap until popped)
    timers_cancelled: int = 0
    #: reuses of a process's preallocated immediate-resume event
    immediate_reuses: int = 0
    peak_queue_depth: int = 0
    environments: int = 0

    @classmethod
    def from_environment(cls, env: Any) -> "EngineCounters":
        kw = {name: getattr(env, name) for name in COUNTER_FIELDS}
        return cls(environments=1, **kw)

    def merge_environment(self, env: Any) -> None:
        """Fold one environment's counters into this snapshot."""
        for name in COUNTER_FIELDS:
            value = getattr(env, name)
            if name == "peak_queue_depth":
                if value > self.peak_queue_depth:
                    self.peak_queue_depth = value
            else:
                setattr(self, name, getattr(self, name) + value)
        self.environments += 1

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PerfCollector:
    """Aggregates counters from every Environment created while active.

    Environments register themselves (via :func:`maybe_register`, called
    from ``Environment.__init__``) only while a collector is installed, so
    the non-profiling path pays one truthiness check per environment —
    nothing per event.
    """

    def __init__(self) -> None:
        self._envs: list[Any] = []

    def register(self, env: Any) -> None:
        self._envs.append(env)

    @property
    def environments(self) -> int:
        return len(self._envs)

    def counters(self) -> EngineCounters:
        snap = EngineCounters()
        for env in self._envs:
            snap.merge_environment(env)
        return snap

    def labelled(self) -> dict[str, EngineCounters]:
        """Counters grouped by ``perf_label`` for registered sources that
        carry one (e.g. the per-shard carriers a sharded trace replay
        registers); plain environments have no label and are skipped.
        Labels repeat across runs, so same-label sources merge."""
        out: dict[str, EngineCounters] = {}
        for env in self._envs:
            label = getattr(env, "perf_label", None)
            if label is None:
                continue
            snap = out.setdefault(label, EngineCounters())
            snap.merge_environment(env)
        return out


class CounterCarrier:
    """Counters shipped home from a forked worker, duck-typed as an
    Environment for the collector (it exposes the :data:`COUNTER_FIELDS`
    attributes and a ``perf_label``), so ``--profile`` campaigns see the
    engine work of forked shards, cohorts and regions."""

    def __init__(self, label: str, counters: dict[str, int]) -> None:
        self.perf_label = label
        for name in COUNTER_FIELDS:
            setattr(self, name, counters.get(name, 0))


def snapshot(env: Any) -> dict[str, int]:
    """One environment's counter attributes as a flat dict — the payload
    of the telemetry bus's ``perf-snapshot`` record."""
    return {name: getattr(env, name) for name in COUNTER_FIELDS}


_ACTIVE: list[PerfCollector] = []


def maybe_register(env: Any) -> None:
    """Called by ``Environment.__init__``; a no-op unless collecting."""
    if _ACTIVE:
        for collector in _ACTIVE:
            collector.register(env)


@contextmanager
def collect() -> Iterator[PerfCollector]:
    """Collect counters from every environment created in the body."""
    collector = PerfCollector()
    _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        _ACTIVE.remove(collector)


@contextmanager
def paused() -> Iterator[None]:
    """Hide every active collector for the body; collectors opened inside
    it still see their own environments.  The fan-out parent runs its
    share under this, because the cell runner credits that share through
    a :class:`CounterCarrier`, as it does the forked shares."""
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE[:] = saved
