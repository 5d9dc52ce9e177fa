"""Fig. 13 / Appendix F — message-queuing overheads of the Fig. 5 designs.

One model update travels client → aggregator under each design (SF-mono,
SF-micro, SL-B, LIFL) for M1/M2/M3 = ResNet-18/34/152.  Reported: CPU cost,
normalized memory cost (queue-resident copies), and end-to-end delay.

Paper shape: SL-B consumes 3× the memory of SF-mono/LIFL; LIFL's CPU is
~1.5× / ~1.9× less than SL-B / SF-micro; delay ~1.3× / ~1.7× less; LIFL is
equivalent to the monolithic serverful design.  Appendix F.1's stateful-tax
comparison falls out of the same pipelines: the gateway (LIFL's only
stateful component) is the cheapest of the four designs' stateful parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import RESNET18_BYTES, RESNET34_BYTES, RESNET152_BYTES
from repro.dataplane.calibration import DEFAULT_CALIBRATION, DataplaneCalibration
from repro.dataplane.pipelines import QueuingDesign, queuing_pipeline
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario

MODELS = [("M1 (R18)", RESNET18_BYTES), ("M2 (R34)", RESNET34_BYTES), ("M3 (R152)", RESNET152_BYTES)]
DESIGNS = [
    ("SF-mono", QueuingDesign.SF_MONO),
    ("LIFL", QueuingDesign.LIFL),
    ("SF-micro", QueuingDesign.SF_MICRO),
    ("SL-B", QueuingDesign.SL_BASIC),
]


@dataclass
class Fig13Row:
    model: str
    design: str
    cpu_s: float
    memory_copies: int
    delay_s: float


def run(cal: DataplaneCalibration = DEFAULT_CALIBRATION) -> list[Fig13Row]:
    rows = []
    for model, nbytes in MODELS:
        for label, design in DESIGNS:
            cost = queuing_pipeline(design, cal).cost(nbytes)
            rows.append(
                Fig13Row(
                    model=model,
                    design=label,
                    cpu_s=cost.cpu_seconds,
                    memory_copies=cost.buffer_copies,
                    delay_s=cost.latency,
                )
            )
    return rows


def ratios_at_m3(rows: list[Fig13Row]) -> dict[str, float]:
    at = {r.design: r for r in rows if r.model.startswith("M3")}
    return {
        "cpu_slb_over_lifl": at["SL-B"].cpu_s / at["LIFL"].cpu_s,
        "cpu_sfmicro_over_lifl": at["SF-micro"].cpu_s / at["LIFL"].cpu_s,
        "delay_slb_over_lifl": at["SL-B"].delay_s / at["LIFL"].delay_s,
        "delay_sfmicro_over_lifl": at["SF-micro"].delay_s / at["LIFL"].delay_s,
        "mem_slb_over_mono": at["SL-B"].memory_copies / at["SF-mono"].memory_copies,
        "lifl_vs_mono_delay": at["LIFL"].delay_s / at["SF-mono"].delay_s,
    }


def _render(rows: list[dict]) -> str:
    lines = ["Fig. 13 — message-queuing overheads (client → aggregator)"]
    lines.append(
        render_table(
            ["model", "design", "CPU (s)", "mem (copies)", "delay (s)"],
            [
                (r["model"], r["design"], f"{r['cpu_s']:.2f}", r["memory_copies"], f"{r['delay_s']:.2f}")
                for r in rows
            ],
        )
    )
    k = ratios_at_m3([Fig13Row(**r) for r in rows])
    lines.append(
        f"\nAt M3: LIFL CPU is {k['cpu_slb_over_lifl']:.1f}x / "
        f"{k['cpu_sfmicro_over_lifl']:.1f}x less than SL-B / SF-micro "
        f"(paper ~1.5x / ~1.9x); delay {k['delay_slb_over_lifl']:.1f}x / "
        f"{k['delay_sfmicro_over_lifl']:.1f}x less (paper ~1.3x / ~1.7x); "
        f"SL-B memory = {k['mem_slb_over_mono']:.0f}x SF-mono (paper 3x); "
        f"LIFL delay = {k['lifl_vs_mono_delay']:.2f}x SF-mono (paper ≈ 1x)."
    )
    return "\n".join(lines)


@scenario(
    name="fig13",
    title="message-queuing overheads of the Fig. 5 designs",
    render=_render,
    workload="one update, client → aggregator, M1/M2/M3",
    metrics=("cpu_s", "memory_copies", "delay_s"),
    tags=('paper',),
)
def fig13_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Fig. 13 / Appendix F: pure cost-model evaluation, one run."""
    return [
        {
            "model": r.model,
            "design": r.design,
            "cpu_s": r.cpu_s,
            "memory_copies": r.memory_copies,
            "delay_s": r.delay_s,
        }
        for r in run()
    ]
