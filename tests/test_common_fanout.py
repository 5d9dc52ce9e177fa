"""The one fork/merge primitive (`repro.common.fanout.fan_out`).

Its contract: results come back in task order in every execution mode,
forked and inline runs return equal results, the caller runs share 0
itself and forks one worker per other share, a daemonic caller (which
cannot fork children) runs inline, and failed shares raise one typed
error naming their tasks.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.common.errors import LiflError
from repro.common.fanout import WorkerError, fan_out
from repro.perf.counters import collect, maybe_register, paused

TASKS = list(range(7))

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _square(x: int) -> int:
    return x * x


@fork_only
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_task_order(workers):
    results, used = fan_out(_square, TASKS, workers=workers)
    assert results == [x * x for x in TASKS]
    assert used == workers


@fork_only
def test_forked_and_inline_results_are_equal():
    forked, forked_used = fan_out(_square, TASKS, workers=3)
    inline, inline_used = fan_out(_square, TASKS, workers=3, inline=True)
    assert forked == inline
    assert (forked_used, inline_used) == (3, 1)


def test_inline_path_reports_one_worker():
    parent = os.getpid()
    results, used = fan_out(lambda _: os.getpid(), TASKS, workers=3, inline=True)
    assert used == 1
    assert results == [parent] * len(TASKS)
    # a single task never forks either
    assert fan_out(_square, [4], workers=3) == ([16], 1)
    assert fan_out(_square, [], workers=3) == ([], 1)


@fork_only
def test_daemonic_parent_runs_inline():
    ctx = multiprocessing.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)

    def child() -> None:
        tx.send(fan_out(_square, TASKS, workers=3))

    proc = ctx.Process(target=child, daemon=True)
    proc.start()
    tx.close()
    results, used = rx.recv()
    proc.join()
    assert results == [x * x for x in TASKS]
    assert used == 1


@fork_only
def test_failed_worker_raises_typed_error_naming_its_tasks():
    def fail_on_four(x: int) -> int:
        if x == 4:
            raise ValueError("bad task")
        return x

    with pytest.raises(WorkerError, match="demo failed: tasks \\[1,4\\]: ") as err:
        fan_out(fail_on_four, TASKS, workers=3, what="demo")
    assert isinstance(err.value, LiflError)
    assert isinstance(err.value, RuntimeError)
    assert "ValueError: bad task" in str(err.value)
    # the other workers' tasks are not blamed
    assert "tasks [0," not in str(err.value)


@fork_only
def test_caller_runs_share_zero_and_forks_the_rest():
    parent = os.getpid()
    pids, used = fan_out(lambda _: os.getpid(), TASKS, workers=3)
    assert used == 3
    assert [pids[i] for i in (0, 3, 6)] == [parent] * 3
    shares = [{pids[i] for i in range(w, len(TASKS), 3)} for w in (1, 2)]
    assert all(len(pid) == 1 for pid in shares)
    assert len(shares[0] | shares[1]) == 2
    assert parent not in shares[0] | shares[1]


@fork_only
def test_failed_caller_share_still_joins_its_workers():
    parent = os.getpid()

    def fail_in_caller(x: int) -> int:
        if os.getpid() == parent:
            raise ValueError("caller share")
        return x

    with pytest.raises(WorkerError, match="demo failed: tasks \\[0,3,6\\]: ") as err:
        fan_out(fail_in_caller, TASKS, workers=3, what="demo")
    assert "ValueError: caller share" in str(err.value)
    assert "tasks [1," not in str(err.value)
    assert multiprocessing.active_children() == []


def test_caller_share_is_hidden_from_active_collectors():
    with collect() as outer:
        with paused():
            maybe_register("hidden")
            with collect() as inner:
                maybe_register("own")
        maybe_register("seen")
    assert outer.environments == 1
    assert inner.environments == 1
