"""Fig. 7 — data-plane improvement for hierarchical aggregation.

(a) latency and (b) CPU of a single intra-node model-update transfer
between a leaf and the top aggregator, for ResNet-18/34/152, under the
serverful (SF), serverless (SL, with its +SC sidecar and +MB broker shares)
and LIFL data planes.  (c) the LIFL round timeline is produced by
:mod:`repro.experiments.fig04_hierarchy_dataplane`'s third setting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import (
    RESNET18_BYTES,
    RESNET34_BYTES,
    RESNET152_BYTES,
    cpu_seconds_to_gcycles,
)
from repro.dataplane.calibration import DEFAULT_CALIBRATION, DataplaneCalibration
from repro.dataplane.pipelines import PipelineKind, intra_node_pipeline
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario

MODELS = [
    ("ResNet-18", RESNET18_BYTES),
    ("ResNet-34", RESNET34_BYTES),
    ("ResNet-152", RESNET152_BYTES),
]

#: paper's reported LIFL latencies (s) per model, for the comparison column
PAPER_LIFL_LATENCY = {"ResNet-18": 0.14, "ResNet-34": 0.25, "ResNet-152": 0.76}
PAPER_LIFL_GCYCLES = {"ResNet-18": 0.21, "ResNet-34": 0.24, "ResNet-152": 2.45}


@dataclass
class Fig7Row:
    model: str
    nbytes: float
    system: str
    latency_s: float
    gcycles: float
    sidecar_share_s: float = 0.0
    broker_share_s: float = 0.0


def run(cal: DataplaneCalibration = DEFAULT_CALIBRATION) -> list[Fig7Row]:
    rows: list[Fig7Row] = []
    for model, nbytes in MODELS:
        for kind, label in [
            (PipelineKind.LIFL, "LIFL"),
            (PipelineKind.SERVERFUL, "SF"),
            (PipelineKind.SERVERLESS, "SL"),
        ]:
            cost = intra_node_pipeline(kind, cal).cost(nbytes)
            rows.append(
                Fig7Row(
                    model=model,
                    nbytes=nbytes,
                    system=label,
                    latency_s=cost.latency,
                    gcycles=cpu_seconds_to_gcycles(cost.cpu_seconds),
                    sidecar_share_s=cost.latency_by_group.get("sidecar", 0.0),
                    broker_share_s=cost.latency_by_group.get("broker", 0.0),
                )
            )
    return rows


def headline_ratios(rows: list[Fig7Row]) -> dict[str, float]:
    """The §1 contribution-(1) ratios at ResNet-152."""
    by = {r.system: r for r in rows if r.model == "ResNet-152"}
    return {
        "sf_over_lifl": by["SF"].latency_s / by["LIFL"].latency_s,
        "sl_over_lifl": by["SL"].latency_s / by["LIFL"].latency_s,
        "sl_over_sf": by["SL"].latency_s / by["SF"].latency_s,
    }


def _render(rows: list[dict]) -> str:
    lines = ["Fig. 7(a)/(b) — single intra-node model-update transfer"]
    table = []
    for r in rows:
        paper_lat = PAPER_LIFL_LATENCY.get(r["model"]) if r["system"] == "LIFL" else None
        paper_gc = PAPER_LIFL_GCYCLES.get(r["model"]) if r["system"] == "LIFL" else None
        table.append(
            (
                r["model"],
                r["system"],
                f"{r['latency_s']:.3f}",
                f"{paper_lat:.2f}" if paper_lat else "-",
                f"{r['gcycles']:.2f}",
                f"{paper_gc:.2f}" if paper_gc else "-",
                f"{r['sidecar_share_s']:.3f}" if r["sidecar_share_s"] else "-",
                f"{r['broker_share_s']:.3f}" if r["broker_share_s"] else "-",
            )
        )
    lines.append(
        render_table(
            ["model", "system", "lat (s)", "paper", "Gcycles", "paper", "+SC (s)", "+MB (s)"],
            table,
        )
    )
    ratios = headline_ratios([Fig7Row(**r) for r in rows])
    lines.append(
        f"\nResNet-152 latency ratios: SF/LIFL = {ratios['sf_over_lifl']:.1f}x "
        f"(paper 3x), SL/LIFL = {ratios['sl_over_lifl']:.1f}x (paper 5.8x), "
        f"SL/SF = {ratios['sl_over_sf']:.1f}x (paper 2x)"
    )
    return "\n".join(lines)


@scenario(
    name="fig07",
    title="data-plane improvement for hierarchical aggregation",
    render=_render,
    workload="single intra-node transfer, ResNet-18/34/152",
    metrics=("latency_s", "gcycles"),
    tags=('paper',),
)
def fig07_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 7(a)/(b): pure cost-model evaluation, one run."""
    return [
        {
            "model": r.model,
            "nbytes": r.nbytes,
            "system": r.system,
            "latency_s": r.latency_s,
            "gcycles": r.gcycles,
            "sidecar_share_s": r.sidecar_share_s,
            "broker_share_s": r.broker_share_s,
        }
        for r in run()
    ]
