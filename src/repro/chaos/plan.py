"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: *what* fails and *when*, independent of
any particular round.  The same plan can be applied to a single-tenant
round, a multi-tenant campaign, or a property test's randomized sweep —
the :class:`~repro.chaos.injector.FaultInjector` turns it into simulation
processes.  All randomness (victim selection inside a dropout wave or a
crash event) derives from ``plan.seed``, so a plan is reproducible down to
the byte across sequential and parallel campaign runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ChaosError
from repro.core.policies import POLICIES

#: fault-event ``tenant`` value meaning "apply to every installed tenant"
ALL_TENANTS = -1


@dataclass(frozen=True)
class AggregatorCrash:
    """Kill up to ``count`` live aggregator instances at time ``at``.

    ``node`` restricts victims to one worker node (any node when empty);
    ``role`` restricts to ``"leaf"`` / ``"middle"`` / ``"top"``.  Victims
    are drawn seeded from the live candidates; each is restarted through
    the lifecycle stage's stateless-restart path (§3).
    """

    at: float
    count: int = 1
    node: str = ""
    role: str = ""
    tenant: int = ALL_TENANTS

    def check(self) -> None:
        if self.at < 0:
            raise ChaosError(f"crash time must be >= 0, got {self.at}")
        if self.count < 1:
            raise ChaosError(f"crash count must be >= 1, got {self.count}")
        if self.role not in ("", "leaf", "middle", "top"):
            raise ChaosError(f"unknown role filter {self.role!r}")


@dataclass(frozen=True)
class DropoutWave:
    """At time ``at``, a random ``fraction`` of the clients whose updates
    have not yet been delivered die mid-round (mobile clients going dark).
    Their ingress is interrupted; the keep-alive monitor detects them."""

    at: float
    fraction: float
    tenant: int = ALL_TENANTS

    def check(self) -> None:
        if self.at < 0:
            raise ChaosError(f"dropout time must be >= 0, got {self.at}")
        if not 0.0 < self.fraction <= 1.0:
            raise ChaosError(f"dropout fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class NicDegrade:
    """One node's NIC runs at ``factor`` × capacity during [start, end)."""

    node: str
    start: float
    end: float
    factor: float

    def check(self) -> None:
        if not self.node:
            raise ChaosError("NIC degradation needs a node name")
        _check_window(self.start, self.end, "NIC degradation")
        if not 0.0 < self.factor < 1.0:
            raise ChaosError(f"degradation factor must be in (0, 1), got {self.factor}")


@dataclass(frozen=True)
class PartitionWindow:
    """The named nodes are severed from the cluster during [start, end):
    their TX/RX links freeze, in-flight flows stall until the heal."""

    nodes: tuple[str, ...]
    start: float
    end: float

    def check(self) -> None:
        if not self.nodes:
            raise ChaosError("partition needs at least one node")
        _check_window(self.start, self.end, "partition")


@dataclass(frozen=True)
class SlowNode:
    """A straggling node: during [start, end) it drains its flows
    ``slowdown`` × slower than its NIC allows (CPU preemption, thermal
    throttling — the paper's hibernating-client pathology at node scale).
    """

    node: str
    start: float
    end: float
    slowdown: float

    def check(self) -> None:
        if not self.node:
            raise ChaosError("slow node needs a node name")
        _check_window(self.start, self.end, "slow node")
        if self.slowdown <= 1.0:
            raise ChaosError(f"slowdown must be > 1, got {self.slowdown}")


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0:
        raise ChaosError(f"{what} start must be >= 0, got {start}")
    if not end > start:
        raise ChaosError(f"{what} window must have end > start, got [{start}, {end})")
    if end == float("inf"):
        raise ChaosError(f"{what} window must end (an endless window hangs the round)")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one round, plus the recovery knobs.

    ``quorum_fraction`` is the paper's over-provisioning margin inverted:
    the round must still aggregate at least ``ceil(fraction × clients)``
    updates or abort with :class:`~repro.common.errors.RoundAbort`.
    ``heartbeat_timeout`` / ``sweep_interval`` parameterize the keep-alive
    failure detector (§3).  ``recovery_policy`` names the registered
    :class:`~repro.core.policies.RecoveryPolicy` that decides, per failed
    client, whether the round shrinks its goal or aborts outright.
    """

    seed: int = 0
    quorum_fraction: float = 0.5
    heartbeat_timeout: float = 5.0
    sweep_interval: float = 1.0
    recovery_policy: str = "shrink-or-abort"
    crashes: tuple[AggregatorCrash, ...] = ()
    dropouts: tuple[DropoutWave, ...] = ()
    nic_degradations: tuple[NicDegrade, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    slow_nodes: tuple[SlowNode, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.crashes
            or self.dropouts
            or self.nic_degradations
            or self.partitions
            or self.slow_nodes
        )

    def validate(self) -> None:
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ChaosError(
                f"quorum_fraction must be in (0, 1], got {self.quorum_fraction}"
            )
        if self.heartbeat_timeout <= 0:
            raise ChaosError("heartbeat_timeout must be positive")
        if self.sweep_interval <= 0:
            raise ChaosError("sweep_interval must be positive")
        recovery = POLICIES.names("recovery")
        if self.recovery_policy and self.recovery_policy not in recovery:
            raise ChaosError(
                f"unknown recovery policy {self.recovery_policy!r}; have {recovery}"
            )
        for ev in (
            *self.crashes,
            *self.dropouts,
            *self.nic_degradations,
            *self.partitions,
            *self.slow_nodes,
        ):
            ev.check()
        # Rate-affecting windows on one node must not overlap: the fabric
        # tracks a single degradation factor per node, so "last write
        # wins" would silently mis-apply overlapping windows.
        windows: dict[str, list[tuple[float, float]]] = {}
        for deg in self.nic_degradations:
            windows.setdefault(deg.node, []).append((deg.start, deg.end))
        for slow in self.slow_nodes:
            windows.setdefault(slow.node, []).append((slow.start, slow.end))
        for node, spans in windows.items():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                if next_start < prev_end:
                    raise ChaosError(
                        f"overlapping rate windows on node {node!r}: "
                        f"degradation/slow-node windows must not intersect"
                    )
        # Same per node for partitions (the fabric heals by set removal, so
        # overlapping windows on one node would end the partition early).
        part_windows: dict[str, list[tuple[float, float]]] = {}
        for part in self.partitions:
            for node in part.nodes:
                part_windows.setdefault(node, []).append((part.start, part.end))
        for node, spans in part_windows.items():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                if next_start < prev_end:
                    raise ChaosError(
                        f"overlapping partition windows on node {node!r}"
                    )


@dataclass
class _PlanDraft:
    """Mutable accumulator used only while generating random plans."""

    crashes: list[AggregatorCrash] = field(default_factory=list)
    dropouts: list[DropoutWave] = field(default_factory=list)
    nic_degradations: list[NicDegrade] = field(default_factory=list)
    partitions: list[PartitionWindow] = field(default_factory=list)
    slow_nodes: list[SlowNode] = field(default_factory=list)


def random_fault_plan(
    rng: np.random.Generator,
    node_names: list[str],
    horizon: float,
    seed: int = 0,
    quorum_fraction: float = 0.5,
    heartbeat_timeout: float = 4.0,
    sweep_interval: float = 1.0,
    max_events: int = 4,
) -> FaultPlan:
    """A random-but-valid plan for property tests and chaos sweeps.

    Draws up to ``max_events`` fault events with times inside ``horizon``.
    Rate windows are laid out non-overlapping per node by construction, so
    the result always passes :meth:`FaultPlan.validate`.
    """
    if horizon <= 0:
        raise ChaosError(f"horizon must be positive, got {horizon}")
    draft = _PlanDraft()
    #: nodes whose rate is already claimed by a window (no overlap math —
    #: one window per node keeps generation simple and always-valid)
    rate_claimed: set[str] = set()
    n_events = int(rng.integers(1, max_events + 1))
    for _ in range(n_events):
        kind = int(rng.integers(0, 5))
        at = float(rng.uniform(0.0, horizon * 0.6))
        if kind == 0:
            draft.crashes.append(
                AggregatorCrash(at=at, count=int(rng.integers(1, 3)))
            )
        elif kind == 1:
            draft.dropouts.append(
                DropoutWave(at=at, fraction=float(rng.uniform(0.05, 0.4)))
            )
        else:
            free = [n for n in node_names if n not in rate_claimed]
            if not free:
                continue
            node = free[int(rng.integers(0, len(free)))]
            rate_claimed.add(node)
            end = at + float(rng.uniform(horizon * 0.05, horizon * 0.35))
            if kind == 2:
                draft.nic_degradations.append(
                    NicDegrade(node=node, start=at, end=end, factor=float(rng.uniform(0.05, 0.9)))
                )
            elif kind == 3:
                draft.partitions.append(
                    PartitionWindow(nodes=(node,), start=at, end=end)
                )
            else:
                draft.slow_nodes.append(
                    SlowNode(node=node, start=at, end=end, slowdown=float(rng.uniform(1.5, 8.0)))
                )
    plan = FaultPlan(
        seed=seed,
        quorum_fraction=quorum_fraction,
        heartbeat_timeout=heartbeat_timeout,
        sweep_interval=sweep_interval,
        crashes=tuple(draft.crashes),
        dropouts=tuple(draft.dropouts),
        nic_degradations=tuple(draft.nic_degradations),
        partitions=tuple(draft.partitions),
        slow_nodes=tuple(draft.slow_nodes),
    )
    plan.validate()
    return plan
