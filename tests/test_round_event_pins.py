"""Pinned kernel event sequences for hand-built rounds.

Every round here is built from plain integer arithmetic (no random draws),
so the pins do not move with the numpy version.  For each round the test
pins the kernel's work counters — events processed, heap pushes, dead
timer skips — and a sha256 over a canonical dump of the
:class:`~repro.core.results.RoundResult` and its timeline.  The kernel
breaks same-instant ties by push order, so a change to the engine that
pushes one event more, one fewer, or in a different order moves at least
one pin.  A deliberate change to the modelled system must re-record them
and say why.

The rounds cover the flows the round engine runs per update and per
instance:

* LIFL, eager and prewarmed (shared-memory data plane, locality-aware);
* SL-H, locality-agnostic: cross-node ingress hops, reactive creation,
  lazy aggregation and cross-node intermediates;
* SF with lazy aggregation behind the shared broker;
* a reactive cold-start chain (no prewarm, no reuse);
* a chaos round driven through direct calls: client dropouts before
  arrival, while queued for a gateway slot, while holding it, and during
  the cross-node hop, plus a crash and a restart at the same instant.

A second test drops one client at each stage of its ingress flow and
checks that no admission slot leaks.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common.units import RESNET18_BYTES, RESNET152_BYTES
from repro.controlplane.hierarchy import plan_hierarchy
from repro.core import stages
from repro.core.platform import PlatformConfig
from repro.core.roundsim import RoundEngine
from repro.core.updates import SimUpdate
from repro.sim.engine import Environment

NODES = ["node0", "node1", "node2"]


def _updates(counts: list[int], nbytes: float, spacing: float) -> list[SimUpdate]:
    """``counts[i]`` updates on ``NODES[i]``; arrivals fold onto a few
    instants (``(uid * 7) % 5`` slots apart) so same-instant ties occur."""
    out = []
    uid = 0
    for node, count in zip(NODES, counts):
        for _ in range(count):
            out.append(
                SimUpdate(
                    uid=uid,
                    nbytes=nbytes,
                    weight=1.0 + (uid % 3),
                    arrival_time=((uid * 7) % 5) * spacing,
                    node=node,
                    client_id=f"c{uid}",
                )
            )
            uid += 1
    return out


def _install(cfg: PlatformConfig, updates: list[SimUpdate]):
    engine = RoundEngine(cfg, NODES)
    per_node: dict[str, int] = {}
    for u in updates:
        per_node[u.node] = per_node.get(u.node, 0) + 1
    plan = plan_hierarchy(per_node, updates_per_leaf=cfg.updates_per_leaf)
    env = Environment()
    fabric = engine.build_fabric(env)
    tenant = engine.install_round(env, fabric, updates, plan, record_timeline=True)
    return engine, env, tenant


def _settle(engine: RoundEngine, env: Environment, tenant) -> dict:
    """Run to the top aggregator's emission, settle, then drain the queue
    (dead continuations of dropped flows still pop) and summarize."""
    env.run(until=tenant.top_done)
    result = engine.finish_round(tenant)
    env.run()
    dump = {
        "act": result.act,
        "total_weight": result.total_weight,
        "cpu": sorted(result.cpu_by_component.items()),
        "cpu_reserved": result.cpu_reserved,
        "updates_aggregated": result.updates_aggregated,
        "cross_node_transfers": result.cross_node_transfers,
        "instances": [
            [
                s.agg_id, s.node, s.role, s.created_at, s.ready_at, s.finished_at,
                s.cold_start, s.reused, s.updates_aggregated, s.client_updates,
                s.restarts,
            ]
            for s in result.instances
        ],
        "timeline": [[e.actor, e.kind, e.start, e.end] for e in result.timeline],
    }
    blob = json.dumps(dump, sort_keys=True).encode()
    return {
        "events": env.events_processed,
        "pushes": env.heap_pushes,
        "dead": env.dead_timer_skips,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _plain_round(cfg: PlatformConfig, counts: list[int], nbytes: float, spacing: float) -> dict:
    engine, env, tenant = _install(cfg, _updates(counts, nbytes, spacing))
    return _settle(engine, env, tenant)


#: (uid, instant) of each client dropout in the chaos round.  The round is
#: SL-H with one gateway slot per node; the instants put uid 5 in the
#: gateway queue behind uid 0, uid 2 before its arrival, uid 3 inside its
#: gateway slot and uid 13 on the fabric between node2 and node0.
CHAOS_DROPOUTS = ((5, 0.4), (2, 1.0), (3, 2.4), (13, 4.95))
#: the crash victim (mid-aggregation at the instant) and that instant
CHAOS_CRASH = ("r0/mid@node0", 20.0)


def _chaos_round() -> dict:
    updates = _updates([9, 3, 4], RESNET152_BYTES, 2.0)
    engine, env, tenant = _install(PlatformConfig.sl_h(), updates)
    tenant.chaos_active = True
    for inst in tenant.instances.values():
        inst.retain_inputs = True

    def dropout(uid: int):
        def fire(_event) -> None:
            handle = tenant.ingress_procs[uid]
            assert handle.is_alive
            handle.defuse()
            handle.interrupt("client-dropout")
            tenant.instances[tenant.leaf_assignment[uid]].reduce_goal(1)

        return fire

    for uid, at in CHAOS_DROPOUTS:
        env.timeout(at).callbacks.append(dropout(uid))
    victim, at = CHAOS_CRASH
    inst = tenant.instances[victim]
    # Crash and restart are two events of the same instant.
    env.timeout(at).callbacks.append(lambda _e: inst.crash())
    env.timeout(at).callbacks.append(
        lambda _e: inst.restart(0.5, reused=False, startup_cpu=0.25)
    )
    pins = _settle(engine, env, tenant)
    survivors = sum(
        u.weight for u in updates if u.uid not in {uid for uid, _ in CHAOS_DROPOUTS}
    )
    assert tenant.result.total_weight == survivors
    assert tenant.result.aggregator_restarts == 1
    for uid, _ in CHAOS_DROPOUTS:
        assert not tenant.ingress_procs[uid].is_alive
    return pins


ROUNDS = {
    "lifl-eager-prewarmed": lambda: _plain_round(
        PlatformConfig.lifl(), [6, 4, 3], RESNET152_BYTES, 1.0
    ),
    "slh-locality-agnostic": lambda: _plain_round(
        PlatformConfig.sl_h(), [5, 4, 3], RESNET152_BYTES, 0.5
    ),
    "sf-lazy": lambda: _plain_round(
        PlatformConfig.serverful(leaf_nodes=3, instances=20, eager=False),
        [4, 4, 4], RESNET152_BYTES, 1.0,
    ),
    "reactive-cold-chain": lambda: _plain_round(
        PlatformConfig.lifl(prewarm=False, reuse=False), [8, 2, 1], RESNET18_BYTES, 0.25
    ),
    "chaos-direct-calls": _chaos_round,
}

#: per round: events processed, heap pushes, dead timer skips, result digest
PINS = {
    "chaos-direct-calls": {
        "events": 241, "pushes": 242, "dead": 1,
        "sha256": "857abd9f27ef1ed1348d42bac9f8a0e0e569b3eec98fbdb29d0b91e2790f8724",
    },
    "lifl-eager-prewarmed": {
        "events": 147, "pushes": 148, "dead": 1,
        "sha256": "1c9374c4faa9201f583842a5215f14507b610f3db4f44f29f99b5b61d1cb68cb",
    },
    "reactive-cold-chain": {
        "events": 110, "pushes": 110, "dead": 0,
        "sha256": "e45ebc46744eb914ab8ed2c6ed02d8c5c73d5650308004c2a5e8593786028800",
    },
    "sf-lazy": {
        "events": 134, "pushes": 135, "dead": 1,
        "sha256": "2d966041b2a0d5a861e28c5b776597c2d48b655b8fc62e9f35723a22445293aa",
    },
    "slh-locality-agnostic": {
        "events": 222, "pushes": 224, "dead": 2,
        "sha256": "f13ad6169b501005f65ac0fe55c3e805c10a0b30886a6b002ed7a178a5874a79",
    },
}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_round_event_sequence_is_pinned(name: str) -> None:
    assert ROUNDS[name]() == PINS[name]


#: (stage, uid, instant, node, (count, queue_length) of that node's
#: admission resource just before the dropout) in the chaos round's
#: schedule; the snapshot shows the update is where the stage says
DROPOUT_CASES = [
    ("pending-start", 2, 1.0, "node0", (1, 0)),
    ("queued-for-gateway", 5, 0.4, "node0", (1, 1)),
    ("holding-gateway", 3, 2.4, "node0", (1, 1)),
    ("hop-tx", 13, 3.5, "node0", (1, 0)),
    ("hop-fabric", 13, 4.95, "node0", (1, 0)),
    ("hop-queued-for-rx", 13, 5.3, "node0", (1, 1)),
    ("hop-holding-rx", 13, 6.0, "node0", (1, 1)),
]


@pytest.mark.parametrize(
    "uid,at,node,snapshot", [s[1:] for s in DROPOUT_CASES], ids=[s[0] for s in DROPOUT_CASES]
)
def test_dropout_releases_admission_at_every_ingress_stage(
    monkeypatch, uid: int, at: float, node: str, snapshot: tuple[int, int]
) -> None:
    built: dict = {}
    build = stages.GatewayIngress.build_resources

    def capture(self, *args, **kwargs):
        resources = build(self, *args, **kwargs)
        built.update(resources)
        return resources

    monkeypatch.setattr(stages.GatewayIngress, "build_resources", capture)
    updates = _updates([9, 3, 4], RESNET152_BYTES, 2.0)
    engine, env, tenant = _install(PlatformConfig.sl_h(), updates)
    assert len(built) == len(NODES)
    seen = []

    def dropout(_event) -> None:
        res = built[node]
        seen.append((res.count, res.queue_length))
        handle = tenant.ingress_procs[uid]
        assert handle.is_alive
        handle.defuse()
        handle.interrupt("client-dropout")
        tenant.instances[tenant.leaf_assignment[uid]].reduce_goal(1)

    env.timeout(at).callbacks.append(dropout)
    env.run(until=tenant.top_done)
    env.run()
    assert seen == [snapshot]
    assert not any(h.is_alive for h in tenant.ingress_procs.values())
    for res in built.values():
        assert (res.count, res.queue_length) == (0, 0)
    result = engine.finish_round(tenant)
    assert result.total_weight == sum(u.weight for u in updates if u.uid != uid)
