"""End-to-end benchmark of the LIFL reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload serve-diurnal --seed 1 --seconds 15 --trace 0

One run measures one workload.  ``--trace 0`` runs the timed protocol and
prints the end-to-end metrics; ``--trace 1`` runs the traced protocol and
prints the per-layer metrics.  Both run every correctness check.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 63, "failed": 0, "metrics": {...}}

and the exit code is 1 when any check failed.  Metric names, units and
bounds are listed in ``BENCHMARK.json`` at the repository root; a run whose
metrics differ from that list fails.

Timed protocol: three fresh worker processes (``PYTHONHASHSEED=0``) run one
after another.  Each builds the inputs from ``--seed`` (that CPU time is
``setup_s``), runs 2 warm-up reps, then timed reps for a third of
``--seconds``, with ``gc.collect()`` before each rep and the calibration
loop of ``calibrate.py`` after it.  CPU times are scaled to the reference
host speed by that loop; wall times are printed but not gated, because CPU
steal on shared hosts moves them run to run.  Timings are medians over
every timed rep of the run; q1, q3 and the sample count are printed beside
them.

Traced protocol: one worker alternates untraced reps (the deterministic
counts and the tracing-overhead base) with traced reps that wrap each
layer's entry points (see ``spans.py``), for ``--seconds``.  The traced rep
with the median wall time gives the per-layer numbers.

Two more modes read or check instead of measuring::

    python3 benchmarks/e2e/run.py --compare PARENT.txt... -- CHANGE.txt...
    python3 benchmarks/e2e/run.py --selftest

``--compare`` takes saved standard output of runs (any workloads, one run
per file), pairs each parent run with the change run of the same workload
and seed, and refuses sets whose seeds differ.  A host metric gets a
verdict only from at least 10 pairs: a gain needs 9 in 10 pairs won and a
median shift beyond the parent's quartile spread; a regression is a median
worse by more than the bound.  A ``sim_*`` metric must be equal on every
pair.  ``--selftest`` runs one in-process rep of each workload and checks
the checks themselves: a clean rep passes, a tampered rep fails, and a
traced rep matches the untraced digest with layer times that add up; it
also runs the ``--compare`` rules on made-up pairs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: the keys of ``workloads.WORKLOADS``, listed here because this process
#: imports nothing from ``src/`` (it must fail cleanly without it)
WORKLOAD_NAMES = ("round-burst", "serve-diurnal", "serve-control", "fanout")
#: timed worker processes per run (each gets a third of ``--seconds``)
TIMED_WORKERS = 3
#: a worker's allowance beyond its measuring budget: import, setup, warm-up
WORKER_SLACK_S = 40.0

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "sim_latency_p95_s": "virtual_s",
    "sim_cpu_cost_s": "virtual_cpu_s",
}

#: per-layer metrics besides each traced layer's .calls/.self_s/.share -> unit
PER_LAYER_EXTRA = {
    "unspanned.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "sim.events": "count",
    "sim.heap_pushes": "count",
    "sim.dead_timer_skips": "count",
    "sim.dead_ratio": "fraction",
    "sim.peak_queue_depth": "count",
    "sim.events_per_cpu_s": "1/s",
    "core.aggregator.created": "count",
    "core.aggregator.reused": "count",
    "core.aggregator.reuse_ratio": "fraction",
    "cluster.cross_node_transfers": "count",
    "traces.replay.rounds": "count",
    "traces.replay.completed": "count",
    "traces.replay.rejected": "count",
    "traces.replay.deferred": "count",
    "traces.replay.shed": "count",
    "traces.replay.aborted": "count",
    "traces.slo.attainment": "fraction",
    "controlplane.reactive.actions": "count",
    "telemetry.records": "count",
    "telemetry.jsonl_bytes": "bytes",
    "traces.shard.critical_path_s": "s",
    "traces.shard.imbalance": "ratio",
    "traces.shard.join_wait_s": "s",
    "core.partition.critical_path_s": "s",
    "core.partition.imbalance": "ratio",
    "core.partition.join_wait_s": "s",
    "geo.join_wait_s": "s",
    "geo.wan_flows": "count",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update(PER_LAYER_EXTRA)
    return units


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_catalogue(benchmark: dict, key: str, units: dict[str, str]) -> list[str]:
    """Names and units this run prints must equal BENCHMARK.json's list."""
    declared = {m["name"]: m["unit"] for m in benchmark[key]}
    if declared == units:
        return []
    return [
        f"metrics differ from BENCHMARK.json {key}: "
        f"missing {sorted(set(declared) - set(units))}, "
        f"extra {sorted(set(units) - set(declared))}, "
        f"unit mismatch {sorted(n for n in declared if n in units and declared[n] != units[n])}"
    ]


# -------------------------------------------------------------------- workers
def build() -> None:
    """Byte-compile the sources into the checkout's build directory once,
    so every worker's ``setup_s`` imports from a warm bytecode cache."""
    prefix = BUILD / "pycache"
    sys.pycache_prefix = str(prefix)
    for directory in (SRC, HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise RuntimeError(f"byte-compiling {directory} failed")


def run_worker(spec: dict) -> dict:
    """One worker process; its last stdout line is its JSON report."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        # numpy's BLAS pool would add threads beyond the host's CPUs
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=spec["budget_s"] + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out: {spec}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {spec}")
    return json.loads(out.strip().splitlines()[-1])


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    budget = seconds / TIMED_WORKERS
    reports = [
        run_worker({"workload": workload, "seed": seed, "budget_s": budget, "mode": "timed"})
        for _ in range(TIMED_WORKERS)
    ]
    errors = [e for r in reports for e in r["errors"]]
    failed = sum(r["failed"] for r in reports)
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        errors.append(f"workers disagree on the output digest: {sorted(digests)}")
        failed = max(failed, 1)
    cpus = [c for r in reports for c in r["cpu_s"]]
    setups = [r["setup_s"] for r in reports]
    first = reports[0]
    values = {
        "setup_s": (quartiles(setups), len(setups)),
        "cpu_s": (quartiles(cpus), len(cpus)),
        "peak_rss_mb": ((max(r["peak_rss_mb"] for r in reports),) * 3, len(reports)),
        "sim_latency_p95_s": ((first["sim_latency_p95_s"],) * 3, 1),
        "sim_cpu_cost_s": ((first["sim_cpu_cost_s"],) * 3, 1),
    }
    run = {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "digest": first["digest"],
        "unscaled": {
            "setup wall": quartiles([r["raw_setup_s"] for r in reports]),
            "rep cpu": quartiles([v for r in reports for v in r["raw_cpu_s"]]),
            "rep wall": quartiles([v for r in reports for v in r["raw_wall_s"]]),
        },
    }
    return values, run, errors


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    report = run_worker({"workload": workload, "seed": seed, "budget_s": seconds, "mode": "traced"})
    measured = report["per_layer"]
    values = {
        name: ((measured.get(name, 0),) * 3, 1) for name in per_layer_units()
    }
    run = {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "digest": report["digest"],
    }
    return values, run, list(report["errors"])


def measure(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    try:
        build()
        if args.trace:
            values, run, errors = traced_run(args.workload, args.seed, args.seconds)
            units, key = per_layer_units(), "per_layer"
        else:
            values, run, errors = timed_run(args.workload, args.seed, args.seconds)
            units, key = END_TO_END, "end_to_end"
    except RuntimeError as exc:  # a worker crashed, timed out or completed no rep
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors += check_catalogue(benchmark, key, units)
    correct = not errors and run["failed"] == 0

    mode = "traced" if args.trace else "timed"
    print(f"workload: {args.workload}  seed: {args.seed}  mode: {mode}  seconds: {args.seconds:g}")
    print(f"digest: {run['digest']}")
    for name, unit in units.items():
        (q1, median, q3), n = values[name]
        spread = f"  (q1 {q1:.6g}  q3 {q3:.6g}  n={n})" if n > 1 else ""
        print(f"  {name:<34} {median:>14.6g} {unit}{spread}")
    for name, (q1, median, q3) in run.get("unscaled", {}).items():
        print(f"  unscaled {name:<25} {median:>14.6g} s  (q1 {q1:.6g}  q3 {q3:.6g}, not gated)")
    print(f"error_rate: {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']} reps)")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": values[name][0][1], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -------------------------------------------------------------------- compare
#: fewest parent/change pairs a verdict other than ``unresolved`` needs
MIN_PAIRS = 10


def read_run(path: str) -> tuple[str, int, dict]:
    """(workload, seed, metrics) from one run's saved standard output."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    header = next((line.split() for line in lines if line.startswith("workload:")), None)
    if header is None or len(header) < 4 or header[2] != "seed:":
        raise ValueError(f"{path}: no 'workload: W  seed: N' line; not a run's output")
    return header[1], int(header[3]), json.loads(lines[-1])["metrics"]


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, int]:
    """The paired-run rule for one host metric on one workload, over
    (parent, change) pairs run on the same seeds: (verdict, pairs won)."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", won
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - pmed)
    if won >= 0.9 * len(pairs) and gain > pq3 - pq1:
        return "improved", won
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not every_better:
        return "unresolved", won
    if -gain > bound * abs(pmed):
        return "worse", won
    return "within bound", won


def exact_verdict(pairs: list[tuple[float, float]]) -> tuple[str, int]:
    """A modelled-system (``sim_*``) metric is a pure function of the seed:
    any pair that differs means the change altered the model."""
    same = sum(1 for p, c in pairs if p == c)
    return ("exact" if same == len(pairs) else "differs"), same


def pair_runs(
    parent_paths: list[str], change_paths: list[str]
) -> dict[str, list[tuple[dict, dict]]]:
    """workload -> (parent metrics, change metrics) per seed, in seed order.
    Both sides must have run every workload on the same seeds, once each."""
    runs: dict[str, dict[str, dict[int, dict]]] = {}
    for side, paths in (("parent", parent_paths), ("change", change_paths)):
        for path in paths:
            workload, seed, metrics = read_run(path)
            by_seed = runs.setdefault(workload, {"parent": {}, "change": {}})[side]
            if seed in by_seed:
                raise ValueError(f"{path}: a second {side} run of {workload} on seed {seed}")
            by_seed[seed] = metrics
    paired = {}
    for workload, sides in sorted(runs.items()):
        parent, change = sides["parent"], sides["change"]
        if set(parent) != set(change):
            raise ValueError(
                f"{workload}: seeds differ; parent only {sorted(set(parent) - set(change))}, "
                f"change only {sorted(set(change) - set(parent))}"
            )
        paired[workload] = [(parent[s], change[s]) for s in sorted(parent)]
    return paired


def compare(parent_paths: list[str], change_paths: list[str]) -> int:
    benchmark = load_benchmark()
    try:
        paired = pair_runs(parent_paths, change_paths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for workload, runs in paired.items():
        print(f"workload: {workload}  ({len(runs)} pairs by seed)")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            pairs = [(p[name]["value"], c[name]["value"]) for p, c in runs]
            if name.startswith("sim_"):
                result, won = exact_verdict(pairs)
                failed |= result == "differs"
                rule = "equal"
            else:
                result, won = verdict(pairs, spec["better"], spec["bound"])
                failed |= result == "worse"
                rule = "won"
            pq1, pmed, pq3 = quartiles([p for p, _ in pairs])
            cq1, cmed, cq3 = quartiles([c for _, c in pairs])
            print(
                f"  {name:<18} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] {spec['unit']}  "
                f"{rule} {won}/{len(pairs)}  bound {spec['bound']:.0%}  -> {result}"
            )
    return 1 if failed else 0


# ------------------------------------------------------------------- selftest
#: workload -> layers that do work in that workload and no other
LAYERS_OF_ONE_WORKLOAD = {
    "serve-control": ("controlplane.reactive", "chaos", "telemetry"),
    "fanout": ("traces.shard", "core.partition", "geo"),
}


def compare_selftest() -> list[str]:
    """The paired-run rules on made-up pairs."""
    found = []
    nine_better = [(1.0 + i / 100, 0.8 + i / 100) for i in range(9)]
    ten_better = [*nine_better, (1.09, 0.89)]
    ten_worse = [(c, p) for p, c in ten_better]
    cases = [
        (verdict(nine_better, "lower", 0.1)[0], "unresolved", "9 pairs, all won"),
        (verdict(ten_better, "lower", 0.1)[0], "improved", "10 pairs, all won"),
        (verdict(ten_worse, "lower", 0.1)[0], "worse", "10 pairs, 20% worse"),
        (verdict(ten_better, "higher", 0.1)[0], "worse", "10 pairs, 20% lower, higher is better"),
        (exact_verdict([(2.5, 2.5)] * 10)[0], "exact", "equal sim_* pairs"),
        (exact_verdict([(2.5, 2.5)] * 9 + [(2.5, 2.5000001)])[0], "differs", "one sim_* pair off"),
    ]
    for got, want, case in cases:
        if got != want:
            found.append(f"compare: {case} gave {got!r}, want {want!r}")
    return found


def selftest() -> int:
    """Check the checks: one in-process rep of every workload, and the
    ``--compare`` rules."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from spans import Tracer
    from worker import Reps
    from workloads import WORKLOADS, tamper

    benchmark = load_benchmark()
    failures = check_catalogue(benchmark, "end_to_end", END_TO_END)
    failures += check_catalogue(benchmark, "per_layer", per_layer_units())
    failures += compare_selftest()
    tracer = Tracer()
    for name, workload in WORKLOADS.items():
        found = []
        inputs = workload.setup(1)
        workload.prepare(inputs)
        raw = workload.rep(inputs, False)
        clean = workload.summarize(inputs, raw)
        if clean.errors:
            found.append(f"{name}: clean rep failed its checks: {clean.errors}")
        tampered = Reps(workload, inputs)
        tampered.check(tamper(raw, name))
        if tampered.failed == 0:
            found.append(f"{name}: a tampered rep left error_rate at 0")
        with tracer.installed():
            tracer.reset()
            start = time.perf_counter()
            traced_raw = workload.rep(inputs, True)
            wall = time.perf_counter() - start
        layers = tracer.attribute(wall)
        if workload.summarize(inputs, traced_raw).digest != clean.digest:
            found.append(f"{name}: traced digest differs from the untraced one")
        spanned = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if abs(spanned - wall) > 0.01 * wall:
            found.append(f"{name}: layer self times sum to {spanned}, wall {wall}")
        for owner, only in LAYERS_OF_ONE_WORKLOAD.items():
            busy = [layer for layer in only if owner != name and layers[f"{layer}.calls"]]
            if busy:
                found.append(f"{name}: layers {busy} ran outside {owner}")
        print(f"{name}: digest {clean.digest[:16]}  {'FAILED' if found else 'ok'}")
        failures += found
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1 :]
        if "--" not in rest:
            print("usage: run.py --compare PARENT... -- CHANGE...", file=sys.stderr)
            return 2
        split = rest.index("--")
        return compare(rest[:split], rest[split + 1 :])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
