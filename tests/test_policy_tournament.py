"""The policy-tournament scenario and the report's ranking mode."""

from __future__ import annotations

import os

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import CampaignRunner
from repro.traces import report as trace_report
from repro.experiments.policy_tournament import CONTENDERS, WORKLOADS

SEED = 23


def _bracket(tmp_path, workload: str):
    out_dir = str(tmp_path / f"bracket-{workload}")
    runner = CampaignRunner(
        jobs=1, seed=SEED, out_dir=out_dir, filters={"workload": workload}
    )
    result = runner.run([get_scenario("policy-tournament")])
    report = result.report_for("policy-tournament")
    return report, out_dir


def test_grid_shape_meets_tournament_floor():
    """≥2 policies per family × ≥2 workloads, as one full cross grid."""
    spec = get_scenario("policy-tournament")
    grid = dict(spec.grid)
    assert grid["workload"] == WORKLOADS
    assert grid["contender"] == CONTENDERS
    assert len(WORKLOADS) >= 2
    per_family: dict[str, set[str]] = {}
    for contender in CONTENDERS:
        family, name = contender.split(":", 1)
        per_family.setdefault(family, set()).add(name)
    assert set(per_family) == {"selection", "placement", "admission", "recovery"}
    for family, names in per_family.items():
        assert len(names) >= 2, f"{family} needs >= 2 contenders"


def test_bracket_ranks_by_attainment_per_cost(tmp_path):
    report, _ = _bracket(tmp_path, "poisson")
    rows = report.rows
    assert len(rows) == len(CONTENDERS)
    scores = {r["contender"]: r["attainment_per_cost"] for r in rows}
    assert all(s > 0 for s in scores.values())
    # The rendered bracket lists contenders best-first.
    text = report.text
    body = text[text.index("poisson:"):]
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    positions = [body.index(f" {c} ") for c in ranked]
    assert positions == sorted(positions), "bracket table is not ranked"
    assert "bracket winners: poisson:" in text


def test_default_named_contenders_share_one_reference_row(tmp_path):
    """Each family's default-named contender is the all-defaults cell, so
    their metrics must be identical — the attribution baseline."""
    report, _ = _bracket(tmp_path, "diurnal")
    defaults = (
        "selection:availability-aware",
        "placement:bestfit",
        "admission:bounded-queue",
        "recovery:shrink-or-abort",
    )
    strip = lambda r: {  # noqa: E731
        k: v for k, v in r.items() if k not in ("contender", "family", "cell")
    }
    reference = [strip(r) for r in report.rows if r["contender"] in defaults]
    assert len(reference) == len(defaults)
    assert all(row == reference[0] for row in reference[1:])


def test_report_rank_by_appends_without_perturbing(tmp_path, capsys):
    """``--rank-by attainment_per_cost`` appends a ranking; the flag-less
    report output stays byte-identical (it is a strict prefix)."""
    _, out_dir = _bracket(tmp_path, "poisson")
    assert os.path.exists(os.path.join(out_dir, "policy-tournament.json"))

    assert trace_report.main(["report", out_dir]) == 0
    plain = capsys.readouterr().out
    assert trace_report.main(
        ["report", out_dir, "--rank-by", "attainment_per_cost"]
    ) == 0
    ranked = capsys.readouterr().out
    assert ranked.startswith(plain.rstrip("\n"))
    assert "ranked by attainment_per_cost" in ranked
    assert "cost (cpu·s)" in ranked


def test_report_rank_by_skips_costless_rows(tmp_path, capsys):
    """Pointing the ranking at a campaign that never tracked cost is a
    clean no-match, not a crash."""
    out_dir = str(tmp_path / "costless")
    runner = CampaignRunner(
        jobs=1, seed=SEED, out_dir=out_dir,
        filters={"system": "LIFL", "rate_per_min": "12", "shards": "1"},
    )
    runner.run([get_scenario("trace-poisson-slo")])
    assert trace_report.main(
        ["report", out_dir, "--rank-by", "attainment_per_cost"]
    ) == 0
    out = capsys.readouterr().out
    assert "no rows carry 'attainment_per_cost'" in out
