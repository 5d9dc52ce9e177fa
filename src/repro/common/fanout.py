"""One fork/merge primitive and one cell runner for the scale-out engines.

Sharded replay (:mod:`repro.traces.shard`), partitioned cohorts
(:mod:`repro.core.partition`) and the geo federation
(:mod:`repro.geo.federation`) split their work into independent,
deterministic cells, run them through the cell runner :func:`run_cells`,
and keep only their own split and merge.  The runner self-times each
cell (wall and CPU seconds, in whichever process ran it) and fills the
cell's :class:`CellReport` with the engine counters of every environment
the cell created.  Forked cells' environments never reach the parent's
``--profile`` collector, so after a forked run the runner credits every
cell to it once, as a :class:`~repro.perf.counters.CounterCarrier`
labelled with the report's ``perf_label``; an inline run registers its
environments directly and credits none.

Underneath, :func:`fan_out` deals the tasks round-robin over ``n``
shares (callers hand over load-balanced task lists), forks ``n - 1``
workers for shares 1..n-1 and runs share 0 in the calling process while
they compute, so the caller is one of the workers rather than an idle
waiter.  It receives each worker's results before joining it (a large
result cannot deadlock against a full pipe buffer), and returns them
**in task order** whatever the deal.  A share that raises, or a worker
that dies before reporting, surfaces as one :class:`WorkerError` naming
every failed share's tasks.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.common.errors import ConfigError, LiflError
from repro.perf import counters

__all__ = [
    "CellReport",
    "WorkerError",
    "available_cpus",
    "balance",
    "check_cells",
    "critical_path_seconds",
    "fan_out",
    "run_cells",
]

T = TypeVar("T")
R = TypeVar("R")
K = TypeVar("K")


class WorkerError(LiflError, RuntimeError):
    """A share raised, or a forked worker died without reporting its tasks."""


@dataclass
class CellReport:
    """What the cell runner measures of one cell; each engine's report
    extends it.  CPU seconds are immune to timeslicing."""

    shard: int
    counters: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def perf_label(self) -> str:
        return f"cell{self.shard}"


C = TypeVar("C", bound=CellReport)


def check_cells(platform_factory, shards: int = 1, workers: int | None = None) -> None:
    """The constructor checks every fanned-out engine shares."""
    if not callable(platform_factory):
        raise ConfigError("platform_factory must be callable")
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def run_cells(
    cell: Callable[[T], C],
    tasks: Sequence[T],
    workers: int | None = None,
    inline: bool = False,
    what: str = "fan-out",
) -> tuple[list[C], int]:
    """Measure ``cell`` over ``tasks`` through :func:`fan_out`; return
    ``(reports, workers_used)``, crediting forked cells' counters."""
    reports, n = fan_out(partial(_measured, cell), tasks, workers, inline, what)
    if n > 1:
        for rep in reports:
            counters.maybe_register(counters.CounterCarrier(rep.perf_label, rep.counters))
    return reports, n


def _measured(cell: Callable[[T], C], task: T) -> C:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with counters.collect() as perf:
        report = cell(task)
    report.counters = perf.counters().as_dict()
    report.wall_seconds = time.perf_counter() - wall0
    report.cpu_seconds = time.process_time() - cpu0
    return report


def balance(loads: dict[K, int], n_cells: int) -> tuple[tuple[K, ...], ...]:
    """Deal weighted items over at most ``n_cells`` cells, greedy
    longest-processing-time: heaviest first, each onto the least-loaded
    cell, ties broken by item then cell index.  Each cell's items come
    back sorted; no cell is empty, and no items give no cells."""
    n = min(n_cells, len(loads))
    totals = [0] * n
    members: list[list[K]] = [[] for _ in range(n)]
    for item in sorted(loads, key=lambda k: (-loads[k], k)):
        cell = min(range(n), key=lambda i: (totals[i], i))
        totals[cell] += loads[item]
        members[cell].append(item)
    return tuple(tuple(sorted(m)) for m in members)


def critical_path_seconds(reports: Sequence[CellReport]) -> float:
    """The slowest cell's CPU seconds: the wall-clock floor a host with
    at least as many free cores as cells can reach."""
    return max((rep.cpu_seconds for rep in reports), default=0.0)


def fan_out(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int | None = None,
    inline: bool = False,
    what: str = "fan-out",
) -> tuple[list[R], int]:
    """Run ``fn`` over ``tasks``; return ``(results, workers_used)``.

    Splits the tasks into ``min(len(tasks), workers or CPUs)`` shares,
    share ``w`` holding tasks ``w, w + n, w + 2n, ...``.  Shares 1..n-1
    run on forked workers; share 0 runs in the calling process meanwhile,
    with any active :mod:`repro.perf.counters` collector paused
    (:func:`run_cells` credits every share's counters through a carrier,
    so share 0 is counted once).  There is one share, and no fork, with
    ``inline=True``, with one task or worker, or when the caller cannot
    fork: no fork start method, or a daemonic process (``CampaignRunner
    --jobs`` pool workers cannot have children).  ``results[i]`` is
    ``fn(tasks[i])`` in every mode; ``workers_used`` counts the processes
    that ran shares, the caller included.

    With forked workers, every failed share is named in one
    :class:`WorkerError` (``"<what> failed: tasks [...]: ..."``) after
    all workers are received and joined.  With no forked worker the
    exception propagates unchanged, as from a plain loop.
    """
    n = min(len(tasks), workers or available_cpus())
    if inline or n <= 1 or not _fork_available():
        n = 1
    ctx = multiprocessing.get_context("fork") if n > 1 else None
    children = []
    for w in range(1, n):
        share = range(w, len(tasks), n)
        rx, tx = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(fn, [tasks[i] for i in share], tx),
            name=f"fan-out-w{w}",
        )
        proc.start()
        tx.close()
        children.append((share, proc, rx))
    results: list = [None] * len(tasks)
    failures: list[str] = []
    own = range(0, len(tasks), n)
    try:
        with counters.paused() if children else nullcontext():
            for i in own:
                results[i] = fn(tasks[i])
    except Exception:
        if not children:
            raise
        failures.append(_blame(own, traceback.format_exc()))
    finally:
        for share, proc, rx in children:
            try:
                status, payload = rx.recv()
            except EOFError:
                status, payload = "err", "worker died without reporting"
            proc.join()
            if status == "ok":
                for i, result in zip(share, payload):
                    results[i] = result
            else:
                failures.append(_blame(share, payload))
    if failures:
        raise WorkerError(f"{what} failed: " + "; ".join(failures))
    return results, n


def _blame(share: range, cause: str) -> str:
    return f"tasks [{','.join(map(str, share))}]: {cause}"


def _worker_main(fn, tasks, conn) -> None:
    try:
        conn.send(("ok", [fn(task) for task in tasks]))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


def _fork_available() -> bool:
    """Fork workers need the fork start method and a non-daemonic parent."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return not multiprocessing.current_process().daemon


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where the OS
    exposes it) — the default worker-count cap."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
