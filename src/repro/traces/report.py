"""Summarize recorded trace campaigns: ``python -m repro.traces.report``.

Reads the per-scenario JSON files a campaign wrote with ``--out DIR``
(``python -m repro.experiments trace --out results/``), keeps the rows
that carry SLO columns, and prints one line per grid cell: percentiles,
queue-wait share, and attainment against the target.

Usage::

    python -m repro.traces.report results/                 # whole dir
    python -m repro.traces.report results/trace-poisson-slo.json
    python -m repro.traces.report results/ --slo-target 20  # re-score
    python -m repro.traces.report results/ --html report.html \\
        --telemetry run.jsonl                               # HTML report
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.common import render_table

#: columns a row must carry to count as an SLO row
SLO_KEYS = ("latency_p50_s", "latency_p95_s", "latency_p99_s", "slo_attainment")


def _load_docs(path: str) -> list[dict]:
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".json")
        )
    elif os.path.isfile(path):
        files = [path]
    else:
        return []
    docs = []
    for file in files:
        with open(file, encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "runs" in doc:
            docs.append(doc)
    return docs


def slo_rows(doc: dict) -> list[tuple[dict, dict]]:
    """(params, row) pairs of the document's SLO-bearing rows."""
    out = []
    for run in doc.get("runs", []):
        for row in run.get("rows", []):
            if all(key in row for key in SLO_KEYS):
                out.append((run.get("params", {}), row))
    return out


def render_slo_report(docs: list[dict], slo_target: float | None = None) -> str:
    """One table per scenario with SLO rows; non-SLO scenarios are noted."""
    lines: list[str] = []
    for doc in docs:
        pairs = slo_rows(doc)
        if not pairs:
            continue
        lines.append(f"{doc.get('scenario', '?')} — {doc.get('title', '')}")
        # Controller-enabled campaigns carry the shed/deferred split; the
        # extra columns appear only when some row has them, so reports for
        # controller-less campaigns keep their original shape.
        controlled = any("shed" in row or "deferred" in row for _, row in pairs)
        rows = []
        for params, row in pairs:
            cell = ",".join(f"{k}={v}" for k, v in params.items()) or "-"
            target = slo_target if slo_target is not None else row.get("slo_target_s")
            attain = row["slo_attainment"]
            if slo_target is not None:
                # Re-scoring against another target needs the percentile
                # shape, not the raw samples: report which percentile band
                # the new target falls in instead of a fake exact number.
                attain = _rescore_band(row, slo_target)
            ctl_cols = (
                (row.get("shed", 0), row.get("deferred", 0)) if controlled else ()
            )
            rows.append(
                (
                    cell,
                    row.get("rounds", 0),
                    *ctl_cols,
                    f"{row['latency_p50_s']:.2f}",
                    f"{row['latency_p95_s']:.2f}",
                    f"{row['latency_p99_s']:.2f}",
                    f"{row.get('queue_wait_p95_s', 0.0):.2f}",
                    f"{row.get('service_p95_s', 0.0):.2f}",
                    f"{target:.0f}s" if target is not None else "-",
                    attain if isinstance(attain, str) else f"{attain:.1%}",
                )
            )
        ctl_headers = ["shed", "defer"] if controlled else []
        lines.append(
            render_table(
                ["cell", "rounds", *ctl_headers, "p50 (s)", "p95 (s)", "p99 (s)", "wait p95", "svc p95", "SLO", "attained"],
                rows,
            )
        )
        lines.append("")
    if not lines:
        return "no SLO rows found (run a trace-* scenario with --out first)"
    return "\n".join(lines).rstrip()


def render_ranking(docs: list[dict], metric: str) -> str:
    """Rank every SLO row carrying ``metric`` (tournament campaigns track
    cost and emit ``attainment_per_cost``), best first, across all docs.

    Rows without the metric — ordinary trace campaigns — are skipped, so
    pointing the ranking at a mixed results directory is safe.
    """
    ranked = []
    for doc in docs:
        scenario = doc.get("scenario", "?")
        for params, row in slo_rows(doc):
            if metric not in row:
                continue
            cell = ",".join(f"{k}={v}" for k, v in params.items()) or "-"
            ranked.append((scenario, cell, row))
    if not ranked:
        return (
            f"no rows carry {metric!r} (run a cost-tracked campaign, e.g. "
            "policy-tournament, with --out first)"
        )
    ranked.sort(key=lambda item: (-item[2][metric], item[0], item[1]))
    rows = [
        (
            rank,
            scenario,
            cell,
            f"{row['slo_attainment']:.1%}",
            f"{row.get('cost_cpu_s', 0.0):.1f}",
            f"{row[metric]:.6f}",
        )
        for rank, (scenario, cell, row) in enumerate(ranked, start=1)
    ]
    return "\n".join(
        [
            f"ranked by {metric} (best first)",
            render_table(
                ["#", "scenario", "cell", "attained", "cost (cpu·s)", metric],
                rows,
            ),
        ]
    )


def _rescore_band(row: dict, target: float) -> str:
    """Bracket attainment for a target the campaign was not scored at."""
    p50, p95, p99 = (
        row["latency_p50_s"],
        row["latency_p95_s"],
        row["latency_p99_s"],
    )
    if target < p50:
        return "<50%"
    if target < p95:
        return "50-95%"
    if target < p99:
        return "95-99%"
    return ">=99%"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces.report",
        description="Summarize SLO rows from recorded trace campaigns.",
    )
    parser.add_argument("path", help="campaign --out directory or one <scenario>.json")
    parser.add_argument(
        "--slo-target",
        type=float,
        default=None,
        metavar="S",
        help="bracket attainment against a different target (seconds)",
    )
    parser.add_argument(
        "--rank-by",
        choices=["attainment_per_cost"],
        default=None,
        metavar="METRIC",
        help="append a cross-scenario ranking of cost-tracked rows "
        "(tournament mode); choices: attainment_per_cost",
    )
    parser.add_argument(
        "--html",
        default=None,
        metavar="FILE",
        help="also write a standalone HTML report (tables, outcome bars, "
        "attainment curves, timelines)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="telemetry JSONL stream to chart in the HTML report",
    )
    args = parser.parse_args(argv[1:])
    docs = _load_docs(args.path)
    if not docs and not (args.html and args.telemetry):
        print(f"no campaign JSON found under {args.path}")
        return 2
    if docs:
        print(render_slo_report(docs, slo_target=args.slo_target))
    if args.rank_by and docs:
        print()
        print(render_ranking(docs, args.rank_by))
    if args.html:
        from repro.telemetry.html import build_report
        from repro.telemetry.sink import _iter_lines

        telemetry = (
            [obj for _, obj in _iter_lines(args.telemetry)] if args.telemetry else None
        )
        page = build_report(docs, telemetry=telemetry)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(page)
        print(f"HTML report written to {args.html}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
