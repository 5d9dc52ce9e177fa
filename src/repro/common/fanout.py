"""One fork/merge primitive for the scale-out engines.

Sharded replay (:mod:`repro.traces.shard`), partitioned cohorts
(:mod:`repro.core.partition`) and the geo federation
(:mod:`repro.geo.federation`) fan independent, deterministic tasks out
through :func:`fan_out`.  It deals the tasks round-robin over forked
workers (callers hand over load-balanced task lists), receives each
worker's results before joining it (a large result cannot deadlock
against a full pipe buffer), and returns them **in task order** whatever
the deal.  A worker that raises, or dies before reporting, surfaces as
one :class:`WorkerError` naming its tasks.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Callable, Sequence, TypeVar

from repro.common.errors import LiflError

__all__ = ["WorkerError", "available_cpus", "fan_out"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(LiflError, RuntimeError):
    """A forked worker raised, or died without reporting its tasks."""


def fan_out(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int | None = None,
    inline: bool = False,
    what: str = "fan-out",
) -> tuple[list[R], int]:
    """Run ``fn`` over ``tasks``; return ``(results, workers_used)``.

    Forks ``min(len(tasks), workers or CPUs)`` workers.  The tasks run
    in-process instead with ``inline=True``, with one task or worker, or
    when the caller cannot fork: no fork start method, or a daemonic
    process (``CampaignRunner --jobs`` pool workers cannot have children).
    ``results[i]`` is ``fn(tasks[i])`` in every mode.  ``workers_used``
    is 1 on the inline path and the number of forked workers otherwise.
    ``what`` names the caller in the error a failed worker raises
    (``"<what> failed: tasks [...]: ..."``).
    """
    n_workers = min(len(tasks), workers or available_cpus())
    if inline or n_workers <= 1 or not _fork_available():
        return [fn(task) for task in tasks], 1
    ctx = multiprocessing.get_context("fork")
    procs = []
    for w in range(n_workers):
        share = range(w, len(tasks), n_workers)
        rx, tx = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(fn, [tasks[i] for i in share], tx),
            name=f"fan-out-w{w}",
        )
        proc.start()
        tx.close()
        procs.append((share, proc, rx))
    results: list = [None] * len(tasks)
    failures: list[str] = []
    for share, proc, rx in procs:
        try:
            status, payload = rx.recv()
        except EOFError:
            status, payload = "err", "worker died without reporting"
        proc.join()
        if status == "ok":
            for i, result in zip(share, payload):
                results[i] = result
        else:
            failures.append(f"tasks [{','.join(map(str, share))}]: {payload}")
    if failures:
        raise WorkerError(f"{what} failed: " + "; ".join(failures))
    return results, n_workers


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
