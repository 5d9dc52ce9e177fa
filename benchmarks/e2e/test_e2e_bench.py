"""Tests of the end-to-end benchmark's own machinery (about 9 s).

They keep ``run.py`` working when ``src/`` is refactored: every workload's
in-process rep passes its checks, a tampered rep fails them, a traced rep
matches the untraced one, the printed metric names equal ``BENCHMARK.json``,
and ``--compare`` pairs runs by seed.

Run with::

    PYTHONPATH=src pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_selftest_passes():
    assert run.selftest() == 0


def test_metric_names_match_benchmark_json():
    benchmark = run.load_benchmark()
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOAD_NAMES)


def _saved_run(path: Path, workload: str, seed: int, cpu_s: float) -> str:
    metrics = {"cpu_s": {"value": cpu_s, "unit": "s"}}
    path.write_text(
        f"workload: {workload}  seed: {seed}  mode: timed  seconds: 15\n"
        + json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        + "\n",
        encoding="utf-8",
    )
    return str(path)


def test_compare_pairs_runs_by_seed(tmp_path):
    parent = [_saved_run(tmp_path / f"p{s}", "fanout", s, 1.0 + s) for s in (1, 2)]
    change = [_saved_run(tmp_path / f"c{s}", "fanout", s, 2.0 + s) for s in (2, 1)]
    paired = run.pair_runs(parent, change)
    assert [(p["cpu_s"]["value"], c["cpu_s"]["value"]) for p, c in paired["fanout"]] == [
        (2.0, 3.0),
        (3.0, 4.0),
    ]


def test_compare_refuses_runs_on_different_seeds(tmp_path):
    parent = [_saved_run(tmp_path / "p", "fanout", 1, 1.0)]
    change = [_saved_run(tmp_path / "c", "fanout", 2, 1.0)]
    assert run.compare(parent, change) == 2
