"""Scenario registry + campaign runner: expansion, determinism, parallelism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigError
from repro.experiments import mixed_fleet, stress50
from repro.scenarios.registry import (
    all_scenarios,
    derive_seed,
    get_scenario,
    match_scenarios,
)
from repro.scenarios.runner import CampaignRunner, run_scenario

#: fast, fully deterministic scenarios used for the equivalence checks
FAST_DETERMINISTIC = ["fig04", "fig07", "fig13", "capacity"]

#: imports the package and every scenario module in a fresh interpreter
_IMPORT_EVERY_SCENARIO = """
import importlib, pkgutil, sys
import repro, repro.experiments
from repro.scenarios.registry import all_scenarios
for mod in pkgutil.iter_modules(repro.experiments.__path__):
    importlib.import_module("repro.experiments." + mod.name)
assert all_scenarios()
assert "networkx" not in sys.modules, "a scenario module imported networkx"
"""


# ---------------------------------------------------------------- registry
def test_scenario_modules_import_without_networkx():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_SCENARIO],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_catalogue_contains_all_figures_and_extras():
    names = {s.name for s in all_scenarios()}
    assert {
        "fig04",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig13",
        "overhead",
        "capacity",
        "mixed-fleet",
        "stress50",
    } <= names


def test_at_least_two_non_paper_scenarios_registered():
    extras = [s for s in all_scenarios() if not s.paper]
    assert len(extras) >= 2


def test_prefix_match_preserved():
    assert [s.name for s in match_scenarios(["fig0"])] == [
        "fig04",
        "fig07",
        "fig08",
        "fig09",
    ]
    # the historical symmetric match: a longer query still hits its prefix
    assert [s.name for s in match_scenarios(["fig08-extra-suffix"])] == ["fig08"]
    assert match_scenarios(["nope"]) == []
    assert match_scenarios(None) == all_scenarios()


def test_unknown_scenario_raises():
    with pytest.raises(ConfigError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_registering_an_existing_scenario_name_raises():
    """A taken name is refused whichever module claims it, ``__main__``
    included; the catalogue keeps the first registration."""
    from repro.scenarios import registry

    saved = dict(registry._REGISTRY)
    original = get_scenario("fig04")

    def impostor(run_spec):
        return []

    try:
        for module in (__name__, "__main__"):
            impostor.__module__ = module
            with pytest.raises(ConfigError, match="scenario 'fig04' already registered"):
                registry.scenario("fig04", title="impostor")(impostor)
        assert get_scenario("fig04") is original
    finally:
        registry._REGISTRY.clear()
        registry._REGISTRY.update(saved)


def test_grid_expansion_order_and_seeds():
    spec = get_scenario("fig08")
    runs = spec.expand(campaign_seed=0)
    assert len(runs) == 15
    # config-major, batch-minor — the historical nested-loop order
    assert [r.params["batch"] for r in runs[:4]] == [20, 60, 100, 20]
    assert runs[0].params["config"] == "SL-H"
    assert runs[3].params["config"] == "+1"
    # seeds are deterministic functions of (campaign seed, scenario, index)
    again = spec.expand(campaign_seed=0)
    assert [r.seed for r in runs] == [r.seed for r in again]
    assert derive_seed(0, "fig08", 0) == runs[0].seed
    assert derive_seed(1, "fig08", 0) != runs[0].seed


# ------------------------------------------------------------------ runner
@pytest.fixture(scope="module")
def sequential_campaign():
    specs = [get_scenario(n) for n in FAST_DETERMINISTIC]
    return CampaignRunner(jobs=1).run(specs)


def test_parallel_campaign_is_byte_identical(sequential_campaign):
    specs = [get_scenario(n) for n in FAST_DETERMINISTIC]
    parallel = CampaignRunner(jobs=4).run(specs)
    seq_texts = [rep.text for rep in sequential_campaign.reports]
    par_texts = [rep.text for rep in parallel.reports]
    assert seq_texts == par_texts
    assert [rep.rows for rep in sequential_campaign.reports] == [
        rep.rows for rep in parallel.reports
    ]


def test_report_text_matches_legacy_fig04_shape(sequential_campaign):
    text = sequential_campaign.report_for("fig04").text
    assert text.startswith("Fig. 4 / Fig. 7(c) — per-round time")
    assert "WH (LIFL) timeline" in text
    assert "NH (kernel)" in text


def test_rows_are_json_serializable(sequential_campaign):
    for rep in sequential_campaign.reports:
        json.dumps(rep.rows)


def test_json_output_files(tmp_path):
    runner = CampaignRunner(jobs=1, out_dir=str(tmp_path))
    runner.run([get_scenario("fig07")])
    path = os.path.join(str(tmp_path), "fig07.json")
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["scenario"] == "fig07"
    assert doc["runs"][0]["rows"]
    assert doc["runs"][0]["rows"][0]["system"] in {"LIFL", "SF", "SL"}


def test_run_scenario_convenience():
    report = run_scenario("fig13")
    assert report.spec.name == "fig13"
    assert "Fig. 13 — message-queuing overheads" in report.text


def test_campaign_rejects_bad_jobs_and_duplicates():
    with pytest.raises(ConfigError):
        CampaignRunner(jobs=0)
    spec = get_scenario("fig07")
    with pytest.raises(ConfigError, match="duplicate"):
        CampaignRunner().run([spec, spec])


# ------------------------------------------------------- non-paper scenarios
def test_mixed_fleet_scenario_runs_and_orders_systems():
    spec = get_scenario("mixed-fleet")
    runs = spec.expand(campaign_seed=0)
    assert len(runs) == 10
    # one LIFL and one SL cell on the same mix share the workload seed,
    # so the comparison is apples-to-apples
    lifl = spec.run(runs[2])[0]  # share=0.25, LIFL
    sl = spec.run(runs[3])[0]  # share=0.25, SL
    assert lifl["mobile_share"] == sl["mobile_share"] == 0.25
    assert lifl["mean_round_s"] < sl["mean_round_s"]
    assert lifl["cpu_per_round_s"] < sl["cpu_per_round_s"]


def test_mixed_fleet_population_mixing():
    from repro.fl.model import model_spec

    pop = mixed_fleet.make_mixed_population(40, 0.25, model_spec("resnet18"), seed=1)
    assert pop.size == 40
    mobiles = [c for c in pop.clients if c.config.hibernate_max > 0]
    assert len(mobiles) == 10


def test_stress50_lifl_beats_slh_at_scale():
    lifl = stress50.run_cell("LIFL", 250)
    slh = stress50.run_cell("SL-H", 250)
    # LIFL packs onto few nodes and reuses warm runtimes in steady state;
    # the reactive baseline spreads over all 50 and cold-starts everything.
    assert lifl["act_s"] < slh["act_s"]
    assert lifl["cpu_s"] < slh["cpu_s"]
    assert lifl["nodes_used"] < slh["nodes_used"] == 50
    assert lifl["aggregators_created"] == 0
    assert slh["aggregators_created"] > 0
    assert lifl["cross_node_transfers"] < slh["cross_node_transfers"]


def test_stress50_scenario_render():
    report = run_scenario("stress50")
    assert "Stress — 50 nodes" in report.text
    assert "SL-H/LIFL ACT ratio by batch" in report.text
    assert len(report.rows) == 6
