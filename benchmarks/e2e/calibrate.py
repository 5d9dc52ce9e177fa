"""Host-speed calibration: a fixed pure-Python loop timed after each rep.

The benchmark runs on shared virtual machines whose speed drifts by 10-30%
over minutes: clock frequency and co-tenant load change in regimes that
outlast a whole run.  A rep's CPU time moves with them; so does
:func:`loop`, a miniature discrete-event simulation (generator processes
on a time-ordered heap, slotted job objects, dict tallies) that does the
same kinds of interpreter work as the simulator and never changes between
commits.  A worker times the loop after every rep and scales its reps by
``REFERENCE_S / median loop CPU time``: CPU seconds on a host running at
the reference speed.  A change to the program moves the scaled time; a
change in host speed moves reps and loop together and cancels.
"""

from __future__ import annotations

import heapq
import time

#: the loop's median CPU time on the reference host (a 2-vCPU VM running
#: Python 3.11.7); scaled times are CPU seconds at that host's speed
REFERENCE_S = 0.024
LOOP_JOBS = 2000


class _Job:
    __slots__ = ("ident", "left", "total")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.left = 4 + ident % 5
        self.total = 0.0


def _process(job: _Job, tally: dict[int, float]):
    while job.left:
        job.left -= 1
        job.total += job.ident * 0.5
        yield (job.ident * 7 + job.left) % 13 * 0.001
    tally[job.ident % 31] = tally.get(job.ident % 31, 0.0) + job.total


def loop(jobs: int = LOOP_JOBS) -> int:
    """Fixed interpreter work: ``jobs`` generator processes stepped in
    virtual-time order off a heap until all finish."""
    heap: list = []
    tally: dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    for seq in range(jobs):
        push(heap, (0.0, seq, _process(_Job(seq), tally)))
    seq = jobs
    while heap:
        at, _, proc = pop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        push(heap, (at + delay, seq, proc))
    return len(tally)


def loop_cpu_seconds() -> float:
    """CPU seconds one :func:`loop` takes right now."""
    start = time.process_time()
    loop()
    return time.process_time() - start
