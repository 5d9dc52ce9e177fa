"""The campaign runner: expand scenarios into runs, execute, report.

One engine-warm path for every benchmark and sweep: the runner expands
each :class:`~repro.scenarios.registry.ScenarioSpec` into its grid of
runs, executes them sequentially or on a ``multiprocessing`` pool
(``jobs > 1``), and renders per-scenario reports from the collected rows.

Determinism: runs are seeded from ``(campaign_seed, scenario, index)``
before dispatch, results are reassembled in expansion order, and tables
are rendered in the parent from the structured rows — so a parallel
campaign's report is byte-identical to the sequential one (for scenarios
whose rows are themselves deterministic; wall-clock-measuring scenarios
like ``overhead`` vary run to run by nature).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import ConfigError
from repro.experiments.common import render_table
from repro.scenarios.registry import (
    ScenarioRun,
    ScenarioSpec,
    discover,
    get_scenario,
)


@dataclass
class RunRecord:
    """One executed run: its grid point plus the rows it produced."""

    scenario: str
    index: int
    params: dict
    seed: int
    rows: list[dict]
    #: engine counters for the run (``--profile`` campaigns only)
    perf: dict | None = None
    #: the run's telemetry stream as JSON-ready record objects
    #: (``--telemetry`` campaigns only) — serialized in the worker so
    #: parallel runs ship plain data home, and the parent writes one
    #: ordered JSONL file whatever the job count
    telemetry: list[dict] | None = None


@dataclass
class ScenarioReport:
    """All runs of one scenario, plus the rendered report text."""

    spec: ScenarioSpec
    records: list[RunRecord]
    text: str

    @property
    def rows(self) -> list[dict]:
        return [row for rec in self.records for row in rec.rows]


@dataclass
class CampaignResult:
    """Everything one campaign produced, in scenario order."""

    seed: int
    jobs: int
    reports: list[ScenarioReport] = field(default_factory=list)

    def report_for(self, name: str) -> ScenarioReport:
        for rep in self.reports:
            if rep.spec.name == name:
                return rep
        raise ConfigError(f"campaign has no scenario {name!r}")


def _execute_payload(payload: tuple[str, int, dict, int, int, bool, bool]) -> RunRecord:
    """Worker entry point: look the scenario up (re-discovering in spawned
    interpreters) and run one grid point."""
    scenario_name, index, params, seed, campaign_seed, profile, telemetry = payload
    discover()
    spec = get_scenario(scenario_name)
    run = ScenarioRun(
        scenario=scenario_name,
        index=index,
        params=params,
        seed=seed,
        campaign_seed=campaign_seed,
    )
    perf: dict | None = None
    stream: list[dict] | None = None

    def execute() -> list[dict]:
        if not telemetry:
            return spec.run(run)
        # An ambient bus + recorder: any replay engine the scenario builds
        # picks the bus up without the scenario knowing about telemetry.
        from repro.telemetry.bus import RecordingSubscriber, TelemetryBus, capture
        from repro.telemetry.sink import records_to_objs

        bus = TelemetryBus()
        recorder = RecordingSubscriber(bus)
        with capture(bus):
            out = spec.run(run)
        nonlocal stream
        stream = records_to_objs(recorder.records)
        return out

    if profile:
        from repro.perf.counters import collect

        with collect() as collector:
            rows = execute()
        perf = collector.counters().as_dict()
        labelled = collector.labelled()
        if labelled:
            # Sharded trace replays register one labelled carrier per
            # shard; surface them so --profile can print the breakdown.
            perf["per_shard"] = {
                label: counters.as_dict() for label, counters in labelled.items()
            }
    else:
        rows = execute()
    _check_rows(scenario_name, rows)
    return RunRecord(
        scenario=scenario_name,
        index=index,
        params=dict(params),
        seed=seed,
        rows=rows,
        perf=perf,
        telemetry=stream,
    )


def parse_filters(pairs: Sequence[str]) -> dict[str, str]:
    """Parse repeated ``key=value`` CLI tokens into a filter mapping."""
    filters: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--filter expects key=value, got {pair!r}")
        filters[key] = value
    return filters


def _value_matches(value: object, want: str) -> bool:
    """Compare one grid value against a CLI filter token.

    The token arrives as a string; coerce it to the axis value's own type
    so ``--filter tenants=4`` matches the int ``4``, ``--filter rate=2.0``
    matches the float ``2.0`` (and ``rate=2`` does too), and
    ``--filter chaos=true`` matches the bool ``True`` — instead of the
    old string comparison, which silently matched nothing whenever the
    repr differed from the user's spelling.
    """
    if isinstance(value, bool):
        return want.strip().lower() in (
            ("true", "1", "yes", "on") if value else ("false", "0", "no", "off")
        )
    if isinstance(value, (int, float)):
        try:
            return float(value) == float(want)
        except ValueError:
            return False
    return str(value) == want


def _matches(params: dict, filters: dict[str, str]) -> bool:
    """A run matches when every filter key is a grid axis of the run and
    its value (type-coerced) equals the filter value."""
    for key, want in filters.items():
        if key not in params or not _value_matches(params[key], want):
            return False
    return True


def _check_rows(name: str, rows: list[dict]) -> None:
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ConfigError(f"scenario {name!r} must return a list of row dicts")
    try:
        json.dumps(rows)
    except TypeError as exc:
        raise ConfigError(f"scenario {name!r} returned non-JSON rows: {exc}") from exc


def default_render(spec: ScenarioSpec, rows: list[dict]) -> str:
    """Fallback report: one table over the union of row keys."""
    if not rows:
        return f"{spec.name}: no rows"
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    return render_table(headers, [[row.get(h, "") for h in headers] for row in rows])


class CampaignRunner:
    """Expand → execute (maybe in parallel) → render → persist."""

    def __init__(
        self,
        jobs: int = 1,
        seed: int = 0,
        out_dir: str | None = None,
        filters: dict[str, str] | None = None,
        profile: bool = False,
        telemetry_path: str | None = None,
    ) -> None:
        """``filters`` selects a grid subset (``{"system": "LIFL"}`` keeps
        only runs whose expanded params match every pair; per-run seeds are
        derived from the *unfiltered* expansion, so a filtered run equals
        the same run in a full campaign).  ``profile`` attaches engine
        counters to each :class:`RunRecord`.  ``telemetry_path`` records
        every run's telemetry stream and writes one schema-versioned JSONL
        file after the campaign — runs execute with an ambient
        :class:`~repro.telemetry.bus.TelemetryBus` and ship their records
        home, so the file is ordered (scenario order, then run index)
        regardless of ``jobs``."""
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.seed = seed
        self.out_dir = out_dir
        self.filters = dict(filters) if filters else {}
        self.profile = profile
        self.telemetry_path = telemetry_path

    # ---------------------------------------------------------------- expand
    def expand(self, specs: Sequence[ScenarioSpec]) -> list[ScenarioRun]:
        """The campaign's full run list, in scenario declaration order."""
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate scenarios in campaign: {names}")
        runs: list[ScenarioRun] = []
        for spec in specs:
            expanded = spec.expand(self.seed)
            if self.filters:
                expanded = [r for r in expanded if _matches(dict(r.params), self.filters)]
            runs.extend(expanded)
        return runs

    # --------------------------------------------------------------- execute
    def run(self, specs: Sequence[ScenarioSpec]) -> CampaignResult:
        runs = self.expand(specs)
        payloads = [
            (
                r.scenario,
                r.index,
                dict(r.params),
                r.seed,
                r.campaign_seed,
                self.profile,
                self.telemetry_path is not None,
            )
            for r in runs
        ]
        if self.jobs > 1 and len(payloads) > 1:
            records = self._run_parallel(payloads)
        else:
            records = [_execute_payload(p) for p in payloads]
        by_scenario: dict[str, list[RunRecord]] = {}
        for rec in records:
            by_scenario.setdefault(rec.scenario, []).append(rec)
        result = CampaignResult(seed=self.seed, jobs=self.jobs)
        for spec in specs:
            recs = sorted(by_scenario.get(spec.name, []), key=lambda r: r.index)
            rows = [row for rec in recs for row in rec.rows]
            # Custom renders assume the full grid: on a filtered campaign a
            # failing render falls back to the generic table; on a full
            # campaign a render bug must surface, not be swallowed.
            if spec.render and rows:
                if self.filters:
                    try:
                        text = spec.render(rows)
                    except Exception:
                        text = default_render(spec, rows)
                else:
                    text = spec.render(rows)
            else:
                text = default_render(spec, rows)
            result.reports.append(ScenarioReport(spec=spec, records=recs, text=text))
        if self.out_dir:
            self.write_json(result)
        if self.telemetry_path:
            self.write_telemetry(result)
        return result

    def _run_parallel(self, payloads: list[tuple]) -> list[RunRecord]:
        # fork keeps the already-populated registry; spawned workers
        # re-discover it inside _execute_payload.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=min(self.jobs, len(payloads))) as pool:
            return pool.map(_execute_payload, payloads)

    # --------------------------------------------------------------- outputs
    def write_json(self, result: CampaignResult) -> list[str]:
        """One ``<scenario>.json`` per scenario: spec metadata + run rows."""
        assert self.out_dir is not None
        os.makedirs(self.out_dir, exist_ok=True)
        paths = []
        for rep in result.reports:
            doc = {
                "scenario": rep.spec.name,
                "title": rep.spec.title,
                "workload": rep.spec.workload,
                "metrics": list(rep.spec.metrics),
                "campaign_seed": result.seed,
                "runs": [
                    {
                        "index": rec.index,
                        "params": rec.params,
                        "seed": rec.seed,
                        "rows": rec.rows,
                    }
                    for rec in rep.records
                ],
            }
            path = os.path.join(self.out_dir, f"{rep.spec.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            paths.append(path)
        return paths

    def write_telemetry(self, result: CampaignResult) -> str:
        """One JSONL stream for the whole campaign: the schema-versioned
        header, then per run a ``run-start`` context line followed by the
        run's records — scenario order, run-index order, always."""
        assert self.telemetry_path is not None
        from repro.telemetry.sink import JsonlSink

        parent = os.path.dirname(self.telemetry_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.telemetry_path, "w", encoding="utf-8") as fh:
            sink = JsonlSink(
                fh,
                flush_every=256,
                campaign_seed=result.seed,
                scenarios=[rep.spec.name for rep in result.reports],
            )
            for rep in result.reports:
                for rec in rep.records:
                    sink.context(
                        "run-start",
                        scenario=rec.scenario,
                        index=rec.index,
                        params=rec.params,
                        seed=rec.seed,
                    )
                    for obj in rec.telemetry or []:
                        sink.write_obj(obj)
            fh.flush()
        return self.telemetry_path


def run_scenario(name: str, jobs: int = 1, seed: int = 0) -> ScenarioReport:
    """Convenience: run one scenario through the campaign path and return
    its report (scripts such as ``examples/custom_scenario.py`` use this)."""
    spec = get_scenario(name)
    campaign = CampaignRunner(jobs=jobs, seed=seed).run([spec])
    return campaign.report_for(name)
