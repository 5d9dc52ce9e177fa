"""One fork/merge primitive for the scale-out engines.

Sharded replay (:mod:`repro.traces.shard`), partitioned cohorts
(:mod:`repro.core.partition`) and the geo federation
(:mod:`repro.geo.federation`) fan independent, deterministic tasks out
through :func:`fan_out`.  It deals the tasks round-robin over ``n``
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
import traceback
from contextlib import nullcontext
from typing import Callable, Sequence, TypeVar

from repro.common.errors import LiflError
from repro.perf import counters

__all__ = ["WorkerError", "available_cpus", "fan_out"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(LiflError, RuntimeError):
    """A share raised, or a forked worker died without reporting its tasks."""


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
    with any active :mod:`repro.perf.counters` collector paused (the
    engines credit every share's counters through a carrier, so share 0
    is counted once).  There is one share, and no fork, with
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
