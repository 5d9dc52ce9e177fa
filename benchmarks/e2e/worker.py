"""One benchmark worker process: set up, warm up, run reps, report.

``run.py`` starts this file in a fresh interpreter with one JSON argument
and reads one JSON line back from its standard output::

    {"workload": "serve-diurnal", "seed": 1, "budget_s": 6.0, "mode": "timed"}

Set-up time runs from this file's start, before ``repro`` is imported,
until the workload's ``setup`` returns; the workload's ``prepare`` step
(reference outputs for the checks) comes after it, untimed.

``mode`` is ``timed`` (warm-up reps, then timed reps with ``gc.collect()``
before each and the calibration loop after each) or ``traced`` (untraced
reps for the deterministic counts and the tracing-overhead base,
alternating with traced reps).  Reps run until ``budget_s`` seconds have
passed, and at least a minimum number of times.
"""

import time

#: set-up time starts here, before ``repro`` is imported
T0 = time.perf_counter()
T0_CPU = time.process_time()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402

WARMUP_REPS = 2
MIN_TIMED_REPS = 5
MIN_TRACED_REPS = 3


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(rep, inputs, inline: bool = False):
    """One rep with its wall and CPU time and the engine counters."""
    from repro.perf.counters import collect

    gc.collect()
    with collect() as perf:
        cpu0 = cpu_seconds()
        wall0 = time.perf_counter()
        raw = rep(inputs, inline)
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
    return raw, wall, cpu, perf.counters()


@contextmanager
def round_tap(totals: dict):
    """Tally every settled round's aggregator and fabric counts.  Rounds
    settle through ``RoundEngine.finish_round`` whatever drives them."""
    from repro.core.roundsim import RoundEngine

    original = RoundEngine.finish_round

    def tapped(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        totals["core.aggregator.created"] += result.aggregators_created
        totals["core.aggregator.reused"] += result.aggregators_reused
        totals["cluster.cross_node_transfers"] += result.cross_node_transfers
        return result

    RoundEngine.finish_round = tapped
    try:
        yield
    finally:
        RoundEngine.finish_round = original


def engine_counts(counters, cpu: float) -> dict:
    pops = counters.heap_pops
    return {
        "sim.events": counters.events_processed,
        "sim.heap_pushes": counters.heap_pushes,
        "sim.dead_timer_skips": counters.dead_timer_skips,
        "sim.dead_ratio": counters.dead_timer_skips / pops if pops else 0.0,
        "sim.peak_queue_depth": counters.peak_queue_depth,
        "sim.events_per_cpu_s": counters.events_processed / cpu if cpu > 0 else 0.0,
    }


class Reps:
    """Per-rep bookkeeping shared by both modes: checks and determinism."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, raw, extra: list[str] = ()):
        """Summarise one rep; it fails on a failed check, on ``extra``
        errors, or when its output differs from the first rep's."""
        summary = self.workload.summarize(self.inputs, raw)
        self.attempted += 1
        errors = [*summary.errors, *extra]
        if self.first is None:
            self.first = summary
        elif summary.digest != self.first.digest:
            errors.append(f"rep {self.attempted}: digest differs from the first rep")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return summary

    @contextmanager
    def attempt(self):
        """Count an exception raised in the block as one failed rep."""
        try:
            yield
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=-3))

    def report(self) -> dict:
        if self.first is None:
            raise RuntimeError("no rep completed: " + "; ".join(self.errors[:3]))
        first = self.first
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "digest": first.digest,
            "sim_latency_p95_s": first.sim_latency_p95_s,
            "sim_cpu_cost_s": first.sim_cpu_cost_s,
        }


def run_timed(workload, inputs, budget_s: float, setup_cpu: float) -> dict:
    """Warm up, then time reps with a calibration loop after each.  The
    set-up and every rep's CPU time are scaled by ``REFERENCE_S`` over the
    worker's median loop CPU time."""
    from calibrate import REFERENCE_S, loop_cpu_seconds

    for _ in range(WARMUP_REPS):
        workload.rep(inputs, False)
    reps = Reps(workload, inputs)
    loops, walls, cpus = [], [], []
    deadline = time.perf_counter() + budget_s
    while reps.attempted < MIN_TIMED_REPS or time.perf_counter() < deadline:
        with reps.attempt():
            raw, wall, cpu, _ = measure(workload.rep, inputs)
            loops.append(loop_cpu_seconds())
            walls.append(wall)
            cpus.append(cpu)
            reps.check(raw)
    scale = REFERENCE_S / statistics.median(loops)
    return {
        **reps.report(),
        "setup_s": setup_cpu * scale,
        "cpu_s": [c * scale for c in cpus],
        "raw_cpu_s": cpus,
        "raw_wall_s": walls,
    }


def run_traced(workload, inputs, budget_s: float) -> dict:
    from spans import Tracer

    tracer = Tracer()
    reps = Reps(workload, inputs)
    # Traced reps run inline so every span is recorded in this process; a
    # workload that forks otherwise gets an untraced inline rep as the
    # overhead base.
    workload.rep(inputs, False)  # warm-up
    counts: list[dict] = []
    base_walls, traced = [], []
    deadline = time.perf_counter() + budget_s
    iterations = 0
    while iterations < MIN_TRACED_REPS or time.perf_counter() < deadline:
        iterations += 1
        with reps.attempt():
            raw, wall, cpu, counters = measure(workload.rep, inputs)
            summary = reps.check(raw)
            counts.append({**summary.counts, **engine_counts(counters, cpu)})
            if workload.forks:
                raw, wall, _, _ = measure(workload.rep, inputs, inline=True)
                reps.check(raw)
            base_walls.append(wall)
            tally = dict.fromkeys(
                ("core.aggregator.created", "core.aggregator.reused", "cluster.cross_node_transfers"),
                0,
            )
            with tracer.installed(), round_tap(tally):
                tracer.reset()
                raw, wall, _, _ = measure(workload.rep, inputs, inline=True)
            layers = tracer.attribute(wall)
            spanned = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            reps.check(
                raw,
                [f"layer self times sum to {spanned}, traced wall is {wall}"]
                if abs(spanned - wall) > 0.01 * wall
                else [],
            )
            traced.append((wall, layers, tally))
    if not traced:
        raise RuntimeError("no traced rep completed: " + "; ".join(reps.errors[:3]))
    traced.sort(key=lambda t: t[0])
    wall, layers, tally = traced[len(traced) // 2]
    total = tally["core.aggregator.created"] + tally["core.aggregator.reused"]
    metrics = {
        **layers,
        **tally,
        "core.aggregator.reuse_ratio": tally["core.aggregator.reused"] / total if total else 0.0,
        "trace.wall_s": wall,
        "trace.overhead": wall / statistics.median(base_walls),
    }
    # Counts repeat exactly rep to rep; host-timed ones take the median.
    for name in counts[0]:
        metrics[name] = statistics.median(c[name] for c in counts)
    return {**reps.report(), "per_layer": metrics}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    inputs = workload.setup(spec["seed"])
    setup_wall = time.perf_counter() - T0
    setup_cpu = time.process_time() - T0_CPU
    workload.prepare(inputs)
    if spec["mode"] == "traced":
        out = run_traced(workload, inputs, spec["budget_s"])
    else:
        out = run_timed(workload, inputs, spec["budget_s"], setup_cpu)
    out.update(raw_setup_s=setup_wall, peak_rss_mb=peak_rss_mb())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
