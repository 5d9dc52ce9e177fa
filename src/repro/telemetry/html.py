"""Self-contained campaign HTML reports.

:func:`build_report` renders one standalone HTML document — inline CSS,
inline SVG, no external assets — from up to two inputs:

* the campaign's ``--out`` JSON documents (SLO summary tables and the
  shed/defer/abort outcome bars),
* a recorded telemetry JSONL stream (per-tenant cumulative attainment
  curves as small multiples, controller-action/chaos timelines).

``python -m repro.traces.report results/ --html out.html`` is the CLI.

Chart discipline: categorical hues come from the validated palette in
fixed slot order and never encode rank; single-series charts carry their
identity in the title (no legend), multi-series charts always get one;
series text wears ink tokens, never the series hue; dark mode is a
selected palette (its own hex per slot), not a filter.
"""

from __future__ import annotations

import html as html_mod
from typing import Any, Iterable, Sequence

__all__ = ["build_report", "split_runs"]

#: how many telemetry runs the report details before folding the rest
#: into a visible note (a campaign can easily record dozens)
MAX_RUNS = 8

# The validated categorical palette (light, dark) per slot — adjacent
# pairs pass the CVD separation and normal-vision floors; see the
# palette reference. Slot order is fixed; hues follow entities, not rank.
_SLOTS = (("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"), ("#1baf7a", "#199e70"))

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #1f1e1d; --ink-2: #5c5a55; --ink-3: #8a887f;
  --grid: #e1e0d9; --neutral: #c9c7bf;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ebe9e4; --ink-2: #a9a7a0; --ink-3: #7c7a73;
    --grid: #2c2c2a; --neutral: #4a4945;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  background: var(--surface); color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
h3 { font-size: 0.95rem; color: var(--ink-2); font-weight: 600; }
p.note { color: var(--ink-3); font-size: 0.85rem; }
table { border-collapse: collapse; font-size: 0.85rem; font-variant-numeric: tabular-nums; }
th, td { padding: 0.25rem 0.7rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; border-bottom: 1px solid var(--grid); }
tr + tr td { border-top: 1px solid var(--grid); }
svg text { fill: var(--ink-2); font: 11px system-ui, sans-serif; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
.legend { display: flex; gap: 1.2rem; font-size: 0.8rem; color: var(--ink-2); margin: 0.3rem 0; }
.legend span::before {
  content: ""; display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 0.35rem; background: var(--swatch);
}
.multiples { display: flex; flex-wrap: wrap; gap: 1rem; }
.bar { display: flex; height: 18px; border-radius: 4px; overflow: hidden;
       background: var(--surface); max-width: 40rem; gap: 2px; }
.bar div { height: 100%; }
.bar-row { display: grid; grid-template-columns: 16rem 1fr; gap: 0.8rem;
           align-items: center; margin: 0.3rem 0; font-size: 0.85rem;
           color: var(--ink-2); }
"""


def _esc(value: Any) -> str:
    return html_mod.escape(str(value))


# ---------------------------------------------------------------- stream
def split_runs(objs: Iterable[dict]) -> tuple[dict, list[dict]]:
    """Split a stream's raw objects into ``(header, runs)`` where each
    run is ``{"label", "records"}`` bracketed by ``run-start`` context
    lines (a headerless single-run stream yields one unlabelled run)."""
    header: dict = {}
    runs: list[dict] = []
    current: dict = {"label": "", "records": []}
    for obj in objs:
        kind = obj.get("kind")
        if kind == "stream-header":
            header = obj
        elif kind == "run-start":
            if current["records"]:
                runs.append(current)
            params = obj.get("params") or {}
            grid = ",".join(f"{k}={v}" for k, v in params.items())
            label = f"{obj.get('scenario')}[{obj.get('index')}] {grid}".strip()
            current = {"label": label, "records": []}
        else:
            current["records"].append(obj)
    if current["records"]:
        runs.append(current)
    return header, runs


def _attainment_curves(records: list[dict]) -> dict[int, list[tuple[float, float]]]:
    """Per-tenant cumulative SLO attainment over virtual time."""
    curves: dict[int, list[tuple[float, float]]] = {}
    hits: dict[int, int] = {}
    seen: dict[int, int] = {}
    for obj in records:
        if obj.get("kind") != "round-settled":
            continue
        tenant = int(obj.get("tenant", -1))
        seen[tenant] = seen.get(tenant, 0) + 1
        hits[tenant] = hits.get(tenant, 0) + bool(obj.get("attained"))
        curves.setdefault(tenant, []).append(
            (float(obj.get("at", 0.0)), hits[tenant] / seen[tenant])
        )
    return curves


# ------------------------------------------------------------------- svg
def _curve_svg(points: Sequence[tuple[float, float]], t_max: float) -> str:
    """One small-multiple attainment curve: y fixed to 0..100%, x to the
    run's horizon so the multiples share scales."""
    w, h, pad = 260, 120, 28
    t_max = max(t_max, 1e-9)
    coords = [
        (pad + at / t_max * (w - pad - 8), (h - pad) - frac * (h - pad - 10))
        for at, frac in points
    ]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    grid = "".join(
        f'<line class="axis" x1="{pad}" y1="{(h - pad) - frac * (h - pad - 10):.1f}"'
        f' x2="{w - 8}" y2="{(h - pad) - frac * (h - pad - 10):.1f}"/>'
        f'<text x="{pad - 4}" y="{(h - pad) - frac * (h - pad - 10) + 4:.1f}"'
        f' text-anchor="end">{int(frac * 100)}%</text>'
        for frac in (0.0, 0.5, 1.0)
    )
    last = points[-1][1] if points else 0.0
    return (
        f'<svg class="chart" width="{w}" height="{h}" viewBox="0 0 {w} {h}"'
        f' role="img" aria-label="cumulative SLO attainment">{grid}'
        f'<polyline points="{path}" fill="none" stroke="var(--s1)"'
        f' stroke-width="2" stroke-linejoin="round"/>'
        f'<text x="{w - 8}" y="12" text-anchor="end">{last:.1%}</text>'
        f'<text x="{pad}" y="{h - 6}">0s</text>'
        f'<text x="{w - 8}" y="{h - 6}" text-anchor="end">{t_max:.0f}s</text>'
        "</svg>"
    )


def _timeline_svg(lanes: list[tuple[str, list[dict]]], t_max: float) -> str:
    """Event lanes over virtual time: one row per action/fault kind,
    a ≥8px marker per event carrying a native tooltip."""
    w, lane_h, pad_l, pad_t = 720, 26, 130, 8
    h = pad_t + lane_h * len(lanes) + 22
    t_max = max(t_max, 1e-9)
    parts = [
        f'<svg class="chart" width="{w}" height="{h}" viewBox="0 0 {w} {h}"'
        f' role="img" aria-label="control-plane and chaos timeline">'
    ]
    slot = 0
    for i, (name, events) in enumerate(lanes):
        y = pad_t + lane_h * i + lane_h // 2
        color = f"var(--s{slot + 1})"
        slot = (slot + 1) % len(_SLOTS)
        parts.append(
            f'<line class="axis" x1="{pad_l}" y1="{y}" x2="{w - 8}" y2="{y}"/>'
            f'<text x="{pad_l - 6}" y="{y + 4}" text-anchor="end">{_esc(name)}</text>'
        )
        for obj in events:
            x = pad_l + float(obj.get("at", 0.0)) / t_max * (w - pad_l - 16)
            tip = ", ".join(
                f"{k}={v}" for k, v in obj.items() if k not in ("kind", "shard")
            )
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y}" r="4" fill="{color}"'
                f' stroke="var(--surface)" stroke-width="2">'
                f"<title>{_esc(tip)}</title></circle>"
            )
    parts.append(
        f'<text x="{pad_l}" y="{h - 6}">0s</text>'
        f'<text x="{w - 8}" y="{h - 6}" text-anchor="end">{t_max:.0f}s</text></svg>'
    )
    return "".join(parts)


# -------------------------------------------------------------- sections
#: outcome bar segments: (row key, display name, CSS color) — completed
#: wears the neutral token; the non-completed outcomes take categorical
#: slots in fixed order
_OUTCOMES = (
    ("completed", "completed", "var(--neutral)"),
    ("deferred", "deferred", "var(--s1)"),
    ("shed", "shed", "var(--s2)"),
    ("aborted", "aborted/rejected", "var(--s3)"),
)


def _outcome_counts(row: dict) -> dict[str, int]:
    rounds = int(row.get("rounds", 0))
    shed = int(row.get("shed", 0))
    deferred = int(row.get("deferred", 0))
    aborted = int(row.get("aborted", 0)) + int(row.get("rejected", 0))
    return {
        "completed": max(0, rounds - aborted),
        "deferred": deferred,
        "shed": shed,
        "aborted": aborted,
    }


def _section_slo(docs: list[dict]) -> str:
    from repro.traces.report import slo_rows

    parts: list[str] = []
    for doc in docs:
        pairs = slo_rows(doc)
        if not pairs:
            continue
        parts.append(
            f"<h2>{_esc(doc.get('scenario', '?'))} — {_esc(doc.get('title', ''))}</h2>"
        )
        controlled = any("shed" in row or "deferred" in row for _, row in pairs)
        head = ["cell", "rounds"]
        if controlled:
            head += ["shed", "defer"]
        head += ["p50 (s)", "p95 (s)", "p99 (s)", "wait p95", "attained"]
        body = []
        for params, row in pairs:
            cell = ",".join(f"{k}={v}" for k, v in params.items()) or "-"
            cols = [cell, row.get("rounds", 0)]
            if controlled:
                cols += [row.get("shed", 0), row.get("deferred", 0)]
            cols += [
                f"{row['latency_p50_s']:.2f}",
                f"{row['latency_p95_s']:.2f}",
                f"{row['latency_p99_s']:.2f}",
                f"{row.get('queue_wait_p95_s', 0.0):.2f}",
                f"{row['slo_attainment']:.1%}",
            ]
            body.append("<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in cols) + "</tr>")
        parts.append(
            "<table><thead><tr>"
            + "".join(f"<th>{_esc(c)}</th>" for c in head)
            + "</tr></thead><tbody>"
            + "".join(body)
            + "</tbody></table>"
        )
        if controlled:
            parts.append(_outcome_bars(pairs))
    return "".join(parts)


def _outcome_bars(pairs: list[tuple[dict, dict]]) -> str:
    parts = ["<h3>round outcomes</h3>"]
    parts.append(
        '<div class="legend">'
        + "".join(
            f'<span style="--swatch:{color}">{_esc(name)}</span>'
            for _, name, color in _OUTCOMES
        )
        + "</div>"
    )
    for params, row in pairs:
        counts = _outcome_counts(row)
        total = sum(counts.values()) or 1
        cell = ",".join(f"{k}={v}" for k, v in params.items()) or "-"
        segs = "".join(
            f'<div style="width:{counts[key] / total * 100:.2f}%;'
            f'background:{color}" title="{_esc(name)}: {counts[key]}"></div>'
            for key, name, color in _OUTCOMES
            if counts[key]
        )
        parts.append(
            f'<div class="bar-row"><span>{_esc(cell)}</span>'
            f'<div class="bar">{segs}</div></div>'
        )
    return "".join(parts)


def _region_rollup(records: list[dict]) -> dict[str, dict]:
    """Per-region counters for geo streams (empty when no record carries
    a region — single-cell reports render exactly as before)."""
    regions: dict[str, dict] = {}
    for obj in records:
        name = str(obj.get("region", ""))
        if not name:
            continue
        roll = regions.setdefault(
            name,
            {"records": 0, "settled": 0, "attained": 0, "wan": 0, "bytes": 0.0, "failovers": 0},
        )
        roll["records"] += 1
        kind = obj.get("kind")
        if kind == "round-settled":
            roll["settled"] += 1
            roll["attained"] += bool(obj.get("attained"))
        elif kind == "wan-sample":
            roll["wan"] += 1
            roll["bytes"] += float(obj.get("nbytes", 0.0))
        elif kind == "region-failover":
            roll["failovers"] += 1
    return regions


def _section_telemetry(header: dict, runs: list[dict]) -> str:
    parts = ["<h2>telemetry streams</h2>"]
    seed = header.get("campaign_seed")
    if seed is not None:
        parts.append(f'<p class="note">campaign seed {_esc(seed)}</p>')
    shown = runs[:MAX_RUNS]
    for run in shown:
        records = run["records"]
        label = run["label"] or "recorded run"
        t_max = max((float(o.get("at", 0.0)) for o in records), default=0.0)
        parts.append(f"<h3>{_esc(label)}</h3>")
        curves = _attainment_curves(records)
        if curves:
            parts.append('<div class="multiples">')
            for tenant in sorted(curves):
                parts.append(
                    "<figure style='margin:0'>"
                    f"<figcaption style='font-size:0.8rem;color:var(--ink-2)'>"
                    f"tenant {tenant}</figcaption>"
                    + _curve_svg(curves[tenant], t_max)
                    + "</figure>"
                )
            parts.append("</div>")
        regions = _region_rollup(records)
        if regions:
            parts.append(
                "<table><thead><tr><th>region</th><th>records</th><th>settled</th>"
                "<th>attained</th><th>wan flows</th><th>wan MB</th>"
                "<th>failover events</th></tr></thead><tbody>"
            )
            for name in sorted(regions):
                roll = regions[name]
                share = roll["attained"] / roll["settled"] if roll["settled"] else 0.0
                parts.append(
                    f"<tr><td>{_esc(name)}</td><td>{roll['records']}</td>"
                    f"<td>{roll['settled']}</td><td>{share:.1%}</td>"
                    f"<td>{roll['wan']}</td><td>{roll['bytes'] / 1e6:.0f}</td>"
                    f"<td>{roll['failovers']}</td></tr>"
                )
            parts.append("</tbody></table>")
        lanes: dict[str, list[dict]] = {}
        for obj in records:
            if obj.get("kind") == "control-action":
                lanes.setdefault(f"action: {obj.get('action')}", []).append(obj)
            elif obj.get("kind") == "chaos-fault":
                lanes.setdefault(f"chaos: {obj.get('fault')}", []).append(obj)
            elif obj.get("kind") == "region-failover":
                lanes.setdefault(f"failover: {obj.get('region')}", []).append(obj)
        if lanes:
            parts.append(_timeline_svg(sorted(lanes.items()), t_max))
    if len(runs) > len(shown):
        parts.append(
            f'<p class="note">{len(runs) - len(shown)} further run(s) recorded '
            "in the stream but not charted — re-run the report against a "
            "filtered campaign to see them.</p>"
        )
    return "".join(parts)


# ------------------------------------------------------------------ page
def build_report(
    docs: list[dict],
    telemetry: list[dict] | None = None,
    title: str = "campaign report",
) -> str:
    """The complete standalone HTML document, as a string."""
    body: list[str] = [f"<h1>{_esc(title)}</h1>"]
    if docs:
        body.append(_section_slo(docs))
    if telemetry:
        header, runs = split_runs(telemetry)
        if runs:
            body.append(_section_telemetry(header, runs))
    if len(body) == 1:
        body.append('<p class="note">nothing to report — no inputs carried data.</p>')
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        "<body>\n" + "\n".join(body) + "\n</body></html>\n"
    )
