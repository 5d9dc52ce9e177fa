"""Mixed mobile+datacenter fleet sweep (non-paper scenario).

The paper evaluates the two §6.2 populations separately: hibernating
mobiles (ResNet-18) and always-on servers (ResNet-152).  Real FL fleets
are mixed — a share of phones training alongside a datacenter pool — so
this scenario sweeps the mobile share of one population from 0 % to 100 %
and runs a short ResNet-18 workload on LIFL and SL for every mix.

Expected shape: LIFL's *absolute* per-round saving over the reactive
serverless baseline is roughly constant across mixes (it removes the same
platform overhead), so its *relative* advantage is largest for the tight
all-server arrival pattern, where platform time dominates the round, and
shrinks as hibernating mobiles stretch every round toward the straggler
floor both systems share.  CPU per round stays ~10x apart throughout.
All workload randomness derives from the campaign seed and the mix (not
the grid index), so both systems see the same fleet and trace at each
point and the sweep is reproducible end to end.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.rounds import FLWorkloadConfig, run_fl_workload
from repro.experiments.common import ratio, render_table
from repro.fl.convergence import curve_for
from repro.fl.model import model_spec
from repro.scenarios.registry import ScenarioRun, derive_seed, scenario
from repro.workloads.fedscale import (
    MOBILE_PROFILE,
    SERVER_PROFILE,
    FedScalePopulation,
    make_population,
)

MOBILE_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
SYSTEMS = ("LIFL", "SL")
POPULATION = 400
ACTIVE_CLIENTS = 40
AGGREGATION_GOAL = 20
ROUNDS = 8


def make_mixed_population(
    n_clients: int, mobile_share: float, spec, seed: int
) -> FedScalePopulation:
    """A fleet with ``mobile_share`` hibernating mobiles, the rest servers."""
    n_mobile = round(n_clients * mobile_share)
    n_server = n_clients - n_mobile
    clients = []
    sample_counts: dict[str, int] = {}
    if n_mobile:
        mob = make_population(n_mobile, spec, MOBILE_PROFILE, seed=seed)
        clients.extend(mob.clients)
        sample_counts.update(mob.sample_counts)
    if n_server:
        srv = make_population(n_server, spec, SERVER_PROFILE, seed=seed + 1)
        clients.extend(srv.clients)
        sample_counts.update(srv.sample_counts)
    profile = MOBILE_PROFILE if mobile_share >= 0.5 else SERVER_PROFILE
    return FedScalePopulation(clients=clients, sample_counts=sample_counts, profile=profile)


def run_mix(mobile_share: float, system: str, seed: int) -> dict:
    """Short ResNet-18 workload on one (mix, system) point."""
    spec = model_spec("resnet18")
    population = make_mixed_population(POPULATION, mobile_share, spec, seed=seed)
    wl = FLWorkloadConfig(
        spec=spec,
        curve=curve_for("resnet18"),
        aggregation_goal=AGGREGATION_GOAL,
        active_clients=ACTIVE_CLIENTS,
        rounds=ROUNDS,
        stop_at_target=False,
    )
    cfg = PlatformConfig.lifl() if system == "LIFL" else PlatformConfig.serverless()
    platform = AggregationPlatform(cfg)
    result = run_fl_workload(platform, population, wl, make_rng(seed, system))
    mean_round = sum(s.duration for s in result.samples) / len(result.samples)
    mean_cpu = sum(s.cpu_total for s in result.samples) / len(result.samples)
    return {
        "mobile_share": mobile_share,
        "system": system,
        "mean_round_s": mean_round,
        "cpu_per_round_s": mean_cpu,
        "rounds": result.rounds,
    }


def _render(rows: list[dict]) -> str:
    lines = [
        f"Mixed fleet — mobile share sweep ({POPULATION} clients, "
        f"goal {AGGREGATION_GOAL}, ResNet-18, {ROUNDS} rounds)"
    ]
    lines.append(
        render_table(
            ["mobile %", "system", "round (s)", "CPU/round (s)"],
            [
                (
                    f"{r['mobile_share'] * 100:.0f}",
                    r["system"],
                    f"{r['mean_round_s']:.1f}",
                    f"{r['cpu_per_round_s']:.0f}",
                )
                for r in rows
            ],
        )
    )
    by = {(r["mobile_share"], r["system"]): r for r in rows}
    gaps = []
    for share in MOBILE_SHARES:
        sl = by.get((share, "SL"))
        lifl = by.get((share, "LIFL"))
        if sl and lifl:
            gaps.append(
                f"{share * 100:.0f}%: "
                f"{ratio(sl['mean_round_s'], lifl['mean_round_s']):.2f}x"
            )
    lines.append("\nSL/LIFL round-time ratio by mobile share: " + ", ".join(gaps))
    return "\n".join(lines)


@scenario(
    name="mixed-fleet",
    title="mixed mobile+datacenter fleet sweep (non-paper)",
    grid={"mobile_share": MOBILE_SHARES, "system": SYSTEMS},
    render=_render,
    workload=f"{POPULATION}-client mixed fleet, ResNet-18, {ROUNDS} rounds",
    metrics=("mean_round_s", "cpu_per_round_s"),
    paper=False,
    tags=('workload',),
)
def mixed_fleet_scenario(run_spec: ScenarioRun) -> list[dict]:
    """One (mobile_share, system) point of the fleet-mix sweep."""
    share = run_spec.params["mobile_share"]
    # Both systems at one mix must see the same fleet and trace, so the
    # workload seed depends on the mix (and campaign seed), not the run.
    seed = derive_seed(
        run_spec.campaign_seed, "mixed-fleet", MOBILE_SHARES.index(share)
    )
    return [run_mix(share, run_spec.params["system"], seed=seed)]
