"""Appendix E — estimating a node's maximum service capacity MC_i.

The procedure: drive one node with increasing arrival rates k_i; watch the
average aggregation execution time E_i; at the rate k'_i where E_i inflects
(the node saturates), estimate ``MC_i = k'_i × E'_i``.

We reproduce it against the simulated node: arrivals are Poisson, each
update costs the calibrated aggregation compute on one of the node's cores,
and saturation appears when offered load approaches core capacity scaled to
the node's configured concurrency limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.common.units import RESNET152_BYTES
from repro.dataplane.calibration import DEFAULT_CALIBRATION, DataplaneCalibration
from repro.experiments.common import render_table
from repro.scenarios.registry import ScenarioRun, scenario
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.workloads.arrival import poisson_arrivals


@dataclass
class CapacityPoint:
    arrival_rate: float
    mean_exec_time: float


def probe_node(
    concurrency_limit: int = 20,
    nbytes: float = RESNET152_BYTES,
    rates: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0),
    horizon: float = 60.0,
    cal: DataplaneCalibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> list[CapacityPoint]:
    """Sweep arrival rates; report mean sojourn (queue + service) time.

    The node aggregates at most ``concurrency_limit`` updates at once —
    that limit is what MC_i measures.
    """
    service_time = cal.agg_compute_lat_per_byte * nbytes
    points = []
    for rate in rates:
        env = Environment()
        slots = Resource(env, capacity=concurrency_limit)
        sojourns: list[float] = []

        def job(at: float):
            yield env.timeout(at)
            t0 = env.now
            req = slots.request()
            yield req
            yield env.timeout(service_time)
            slots.release(req)
            sojourns.append(env.now - t0)

        for t in poisson_arrivals(rate, horizon, make_rng(seed, f"cap{rate}")):
            env.process(job(t))
        env.run()
        points.append(CapacityPoint(rate, sum(sojourns) / max(1, len(sojourns))))
    return points


def estimate_mc(points: list[CapacityPoint], inflection_factor: float = 1.5) -> float:
    """MC = k' × E' at the saturation onset: k' is the highest arrival rate
    the node still served without significant E inflation, and E' the
    execution time observed there (Appendix E)."""
    base = points[0].mean_exec_time
    prev = points[0]
    for p in points[1:]:
        if p.mean_exec_time > inflection_factor * base:
            return prev.arrival_rate * prev.mean_exec_time
        prev = p
    return prev.arrival_rate * prev.mean_exec_time


def _render(rows: list[dict]) -> str:
    points = [CapacityPoint(r["arrival_rate"], r["mean_exec_time"]) for r in rows]
    lines = ["Appendix E — maximum service capacity probe (ResNet-152)"]
    lines.append(
        render_table(
            ["arrival rate (/s)", "mean E (s)"],
            [(f"{p.arrival_rate:.0f}", f"{p.mean_exec_time:.3f}") for p in points],
        )
    )
    lines.append(f"\nestimated MC = {estimate_mc(points):.1f} (testbed value in the paper: 20)")
    return "\n".join(lines)


@scenario(
    name="capacity",
    title="estimating a node's maximum service capacity MC_i",
    render=_render,
    workload="Poisson arrival sweep on one simulated node",
    metrics=("mean_exec_time",),
    tags=('paper',),
)
def capacity_scenario(run_spec: ScenarioRun) -> list[dict]:
    """Appendix E: one rate sweep per run."""
    return [
        {"arrival_rate": p.arrival_rate, "mean_exec_time": p.mean_exec_time}
        for p in probe_node()
    ]
