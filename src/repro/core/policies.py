"""The strategy-pattern policy registry: pluggable serving decisions.

Five decision families steer a round or a serving replay, and each used
to be a hard-wired method.  This module gives every family a slim ABC
and one name → factory registry, :data:`POLICIES`:

* :class:`SelectionPolicy` — which clients participate in a round
  (``availability-aware`` / ``random`` / ``population``);
* :class:`PlacementPolicy` — how a round's updates are bin-packed onto
  nodes by residual service capacity (``bestfit`` / ``firstfit`` /
  ``worstfit``);
* :class:`AdmissionPolicy` — what happens to an arrival when the
  tenant's in-flight slots are busy (``bounded-queue`` / ``drop-tail`` /
  ``drop-head`` / ``defer-with-deadline``);
* :class:`RecoveryPolicy` — how a round reacts to mid-flight client
  failures (``shrink-or-abort`` / ``abort-fast``);
* :class:`~repro.core.stages.IngressStage` — how client updates enter a
  node (``gateway`` / ``gateway-coalesced`` / ``broker-sf`` /
  ``broker-sl``), registered by :mod:`repro.core.stages`.

Policies register with the :func:`policy` decorator and are resolved by
name through :class:`~repro.core.platform.PlatformConfig` (placement,
ingress) and :class:`~repro.traces.replay.ReplayConfig` /
:class:`~repro.chaos.FaultPlan` knobs — empty string means "the
registered default", which reproduces the pre-registry behaviour byte
for byte.  All randomness a policy consumes
comes through its injected RNG: selection receives the per-round stream
the replay derives from ``(seed, tenant, round_id)``, and
:func:`resolve_policy` binds a named :class:`~repro.common.rng.RngRegistry`
stream to ``self.rng`` for policies that draw outside the per-call path.
Drawing from the global RNG instead would break seeded-replay determinism
— the conformance suite (``tests/test_policy_conformance.py``) catches
exactly that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.common.errors import CapacityExceededError, ConfigError
from repro.common.rng import RngRegistry
from repro.controlplane.placement import NodeCapacity, PlacementPlan

if TYPE_CHECKING:
    from repro.fl.client import FLClient
    from repro.fl.population import ClientPopulation
    from repro.fl.selector import Selector
    from repro.traces.models import AvailabilityTrace

__all__ = [
    "POLICIES",
    "AdmissionContext",
    "AdmissionPolicy",
    "PlacementPolicy",
    "Policy",
    "PolicyRegistry",
    "RecoveryContext",
    "RecoveryPolicy",
    "SelectionContext",
    "SelectionPolicy",
    "policy",
    "resolve_policy",
]

#: the decision families the registry knows about
FAMILIES = ("selection", "placement", "admission", "recovery", "ingress")

#: the registered default per family — resolving an empty-string knob
#: lands here (except selection, whose default derives from the inputs
#: the replay was given, see TraceReplayEngine, and ingress, whose
#: default derives from the platform config, see resolve_ingress)
DEFAULTS = {
    "selection": "availability-aware",
    "placement": "bestfit",
    "admission": "bounded-queue",
    "recovery": "shrink-or-abort",
}


class Policy:
    """Base for every registered policy.

    ``family``/``name`` are set by the :func:`policy` decorator; ``rng``
    is the policy's injected stream (bound by :func:`resolve_policy`) —
    the ONLY generator a policy may draw from outside arguments
    explicitly passed to its decision methods.
    """

    family: str = ""
    name: str = ""
    rng: np.random.Generator | None = None


class PolicyRegistry:
    """``(family, name)`` → policy factory: duplicates refuse to register,
    unknown names raise a :class:`~repro.common.errors.ConfigError`
    listing what exists."""

    def __init__(self) -> None:
        self._factories: dict[tuple[str, str], Callable[[], Policy]] = {}

    def register(
        self, family: str, name: str, factory: Callable[[], Policy]
    ) -> Callable[[], Policy]:
        if family not in FAMILIES:
            raise ConfigError(
                f"unknown policy family {family!r}; have {list(FAMILIES)}"
            )
        if not name:
            raise ConfigError(f"{family} policy needs a non-empty name")
        key = (family, name)
        if key in self._factories:
            raise ConfigError(f"{family} policy {name!r} already registered")
        self._factories[key] = factory
        return factory

    def create(self, family: str, name: str) -> Policy:
        try:
            factory = self._factories[(family, name)]
        except KeyError:
            raise ConfigError(
                f"unknown {family} policy {name!r}; have {self.names(family)}"
            ) from None
        instance = factory()
        instance.family = family
        instance.name = name
        return instance

    def names(self, family: str) -> list[str]:
        """Registered names for one family, sorted."""
        return sorted(n for f, n in self._factories if f == family)

    def families(self) -> list[str]:
        return [f for f in FAMILIES if any(k[0] == f for k in self._factories)]


#: the process-wide registry every knob resolves against
POLICIES = PolicyRegistry()


def policy(family: str, name: str) -> Callable[[type], type]:
    """Class decorator: ``@policy("selection", "random")`` registers the
    class under ``(family, name)``."""

    def deco(cls: type) -> type:
        POLICIES.register(family, name, cls)
        cls.family = family
        cls.name = name
        return cls

    return deco


def resolve_policy(
    family: str, name: str = "", rngs: RngRegistry | None = None
) -> Policy:
    """Resolve one policy by name (empty → the family default; a family
    without one raises) and bind its registry stream
    ``policy:<family>:<name>`` when ``rngs`` given."""
    resolved = POLICIES.create(family, name or DEFAULTS.get(family, ""))
    if rngs is not None:
        resolved.rng = rngs.stream(f"policy:{family}:{resolved.name}")
    return resolved


# ================================================================= selection
@dataclass
class SelectionContext:
    """Everything a selection policy may consult for one round."""

    at: float
    tenant: int
    round_id: int
    #: the round's aggregation goal (``ReplayConfig.round_updates``)
    round_updates: int
    availability: "AvailabilityTrace | None" = None
    weights: dict[str, float] = field(default_factory=dict)
    selector: "Selector | None" = None
    clients: "list[FLClient]" = field(default_factory=list)
    population: "ClientPopulation | None" = None


class SelectionPolicy(Policy):
    """Which clients participate in one round.

    ``select`` returns the picked client ids (or, for population-backed
    policies, client *indices*) — a duplicate-free subset of the clients
    eligible at ``ctx.at``; an empty sequence marks the round unformable.
    ``participant_weights`` maps the picked sequence to per-client
    aggregation weights (same length/order).  All draws must come from
    the passed per-round ``rng`` — never module-level randomness.
    """

    family = "selection"

    def select(self, ctx: SelectionContext, rng: np.random.Generator):
        raise NotImplementedError

    def participant_weights(self, ctx: SelectionContext, picked) -> list[float]:
        return [float(ctx.weights.get(cid, 1.0)) for cid in picked]


#: the sentinel row appended to an availability mask: ids the trace lacks
_DOWN = np.zeros(1, dtype=bool)


@policy("selection", "availability-aware")
class AvailabilityAwareSelection(SelectionPolicy):
    """Route participation through the FL selector's over-provisioning
    policy, restricted to the clients the availability trace reports up
    at the round's arrival instant (the pre-registry selector path).

    Per round this is one vectorized eligibility test: the trace's
    availability mask, gathered through each client's row in the trace's
    compiled id order, then the selector's one draw over the up
    positions.  The rows, ids and sample counts are indexed once per
    ``(ctx.clients, compiled trace)`` pair — a replay passes the same two
    objects every round — and rebuilt when either changes.  Picks equal
    :meth:`~repro.fl.selector.Selector.select_available` with an
    :meth:`~repro.traces.models.AvailabilityTrace.is_available`
    predicate, client for client."""

    #: (clients list, its length, trace id order) → (rows, ids, num_samples)
    _index: tuple | None = None

    def _client_index(
        self, clients: "list[FLClient]", trace: "AvailabilityTrace"
    ) -> tuple[np.ndarray, list[str], np.ndarray]:
        order = trace.mask_ids()
        cached = self._index
        if (
            cached is not None
            and cached[0] is clients
            and cached[1] == len(clients)
            and cached[2] is order
        ):
            return cached[3]
        row_of = {cid: row for row, cid in enumerate(order)}
        ids = [c.client_id for c in clients]
        # Ids the trace lacks read the sentinel row one past its end.
        rows = np.array([row_of.get(cid, len(order)) for cid in ids], dtype=np.intp)
        index = (rows, ids, np.array([c.num_samples for c in clients]))
        self._index = (clients, len(clients), order, index)
        return index

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> list[str]:
        if ctx.selector is None or ctx.availability is None or not ctx.clients:
            raise ConfigError(
                "availability-aware selection needs selector, clients, "
                "and an availability trace"
            )
        rows, ids, num_samples = self._client_index(ctx.clients, ctx.availability)
        up = np.concatenate((ctx.availability.available_mask(ctx.at), _DOWN))
        pool = np.flatnonzero(up[rows])
        if pool.size == 0:
            return []
        idx = ctx.selector.draw(rng, pool.size, lambda: num_samples[pool])
        return [ids[i] for i in pool[idx].tolist()]


@policy("selection", "random")
class RandomSelection(SelectionPolicy):
    """Uniform sampling from whoever the availability trace reports up —
    no selector mediation; without a trace, a full synthetic cohort (the
    pre-registry fallback paths)."""

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> list[str]:
        if ctx.availability is not None:
            return ctx.availability.sample(ctx.at, ctx.round_updates, rng)
        return [f"synth-{i}" for i in range(ctx.round_updates)]


@policy("selection", "population")
class PopulationSelection(SelectionPolicy):
    """Vectorized selection over a struct-of-arrays
    :class:`~repro.fl.population.ClientPopulation`: mask + index draw,
    weights read straight from the population arrays."""

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> np.ndarray:
        if ctx.population is None or ctx.selector is None:
            raise ConfigError(
                "population selection needs a ClientPopulation and a selector"
            )
        pop = ctx.population
        return ctx.selector.select_population(pop, rng, pop.available_mask(ctx.at))

    def participant_weights(self, ctx: SelectionContext, picked) -> list[float]:
        return ctx.population.weights(picked)


# ================================================================= placement
class PlacementPolicy(Policy):
    """Locality-aware placement (§5.1): bin-pack one round's unit-demand
    updates onto nodes by residual service capacity.

    ``place`` is the shared harness; subclasses implement the batch fill.
    Unit demands let every fill run in O(n log n + items) instead of a
    per-item argmin scan, which keeps 10K-client placement under the
    paper's 17 ms budget (§6.1); the batch fills are exactly equivalent to
    the per-item greedy rules.  Placement is deterministic: no policy here
    draws randomness.
    """

    family = "placement"

    def place(self, n_updates: int, nodes: Sequence[NodeCapacity]) -> PlacementPlan:
        """Assign ``n_updates`` unit-demand model updates to ``nodes``.

        Each update consumes one unit of residual capacity.  When every
        node is saturated, remaining updates overflow round-robin onto all
        nodes (they will queue) — the paper's Fig. 8 "100 updates" case
        where "the service capacity of all five nodes would be maxed out".
        """
        if n_updates < 0:
            raise ConfigError(f"n_updates must be non-negative, got {n_updates}")
        if not nodes:
            raise CapacityExceededError("no nodes available for placement")
        order = [n.name for n in nodes]
        slots = {n.name: int(max(0.0, n.residual)) for n in nodes}
        assignments = self._fill(order, slots, n_updates)
        # All bins full: queue the remainder on nodes round-robin.
        for i in range(n_updates - len(assignments)):
            assignments.append(order[i % len(order)])
        per_node: dict[str, int] = {name: 0 for name in order}
        for name in assignments:
            per_node[name] += 1
        return PlacementPlan(assignments=assignments, per_node=per_node)

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        """Assign up to ``n`` updates into free ``slots``; return choices."""
        raise NotImplementedError


@policy("placement", "firstfit")
class FirstFitPlacement(PlacementPolicy):
    """First node (in fixed order) that fits — cheap, locality-blind."""

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        assignments: list[str] = []
        for name in order:
            if n <= len(assignments):
                break
            take = min(slots[name], n - len(assignments))
            assignments.extend([name] * take)
        return assignments


@policy("placement", "bestfit")
class BestFitPlacement(FirstFitPlacement):
    """LIFL's policy: the fullest node that still fits (fewest nodes used).

    With unit demands, greedy best-fit fills the least-residual node to
    exhaustion before touching the next, so a first-fit over the nodes
    sorted by residual (stable: ties in fleet order) is equivalent.
    """

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        return super()._fill(sorted(order, key=slots.__getitem__), slots, n)


@policy("placement", "worstfit")
class WorstFitPlacement(PlacementPolicy):
    """Most-residual-capacity node first, ties in fleet order — spreads
    load like Knative's "least connection" policy (the SL-H baseline's
    behaviour in Fig. 8)."""

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        index = {name: i for i, name in enumerate(order)}
        heap = [(-s, index[name], name) for name, s in slots.items() if s >= 1]
        heapq.heapify(heap)
        assignments: list[str] = []
        while heap and len(assignments) < n:
            neg_s, idx, name = heapq.heappop(heap)
            assignments.append(name)
            if neg_s + 1 < 0:
                heapq.heappush(heap, (neg_s + 1, idx, name))
        return assignments


# ================================================================= admission
#: what an admission policy may decide for an arrival that found every
#: in-flight slot busy
ADMISSION_DECISIONS = ("enqueue", "reject", "defer", "evict-oldest")


@dataclass(frozen=True)
class AdmissionContext:
    """One overflow arrival's view of its tenant's queue."""

    tenant: int
    #: rounds already waiting in the tenant's bounded queue
    queue_len: int
    queue_limit: int
    now: float
    #: deferral budget (seconds); 0 when deferral is not configured
    defer_deadline_s: float = 0.0


class AdmissionPolicy(Policy):
    """What happens to an arrival when the tenant's in-flight slots are
    all busy.  The serving loop admits directly while slots are free —
    policies only see overflow — and it enforces the queue bound: a
    decision may never grow the queue past ``queue_limit`` (``enqueue``
    with a full queue is a conformance violation), and leaving room
    unused (rejecting with a non-full queue) starves the tenant."""

    family = "admission"

    def decide(self, ctx: AdmissionContext) -> str:
        raise NotImplementedError


@policy("admission", "bounded-queue")
class BoundedQueueAdmission(AdmissionPolicy):
    """The default: queue while there is room, reject overflow outright
    (the pre-registry serving loop)."""

    def decide(self, ctx: AdmissionContext) -> str:
        return "enqueue" if ctx.queue_len < ctx.queue_limit else "reject"


@policy("admission", "drop-tail")
class DropTailAdmission(BoundedQueueAdmission):
    """Tail drop, named explicitly: the arriving round is the one shed
    when the queue is full — behaviourally identical to
    ``bounded-queue``, registered separately so tournaments can name the
    overflow discipline they mean."""


@policy("admission", "drop-head")
class DropHeadAdmission(AdmissionPolicy):
    """Head drop: a full queue evicts its *oldest* waiter to admit the
    newcomer — freshest-work-first under overload, at the cost of
    abandoning rounds that already waited longest."""

    def decide(self, ctx: AdmissionContext) -> str:
        return "enqueue" if ctx.queue_len < ctx.queue_limit else "evict-oldest"


@policy("admission", "defer-with-deadline")
class DeferWithDeadlineAdmission(AdmissionPolicy):
    """Park overflow in the deferral room with a shed deadline instead of
    dropping it — the reactive controller's discipline, available
    standalone through ``ReplayConfig.defer_deadline_s``."""

    def decide(self, ctx: AdmissionContext) -> str:
        if ctx.queue_len < ctx.queue_limit:
            return "enqueue"
        return "defer" if ctx.defer_deadline_s > 0 else "reject"


# ================================================================== recovery
@dataclass(frozen=True)
class RecoveryContext:
    """One declared-failed client, seen by the recovery sweep."""

    client_id: str
    #: clients still alive after this sweep's failures
    survivors: int
    quorum: int
    total: int


class RecoveryPolicy(Policy):
    """How a round reacts to clients its heartbeat sweep declared failed.

    ``on_client_failed`` runs once per newly-failed client and returns
    ``"shrink"`` (absorb the loss via the over-provisioning margin) or
    ``"abort"`` (fail the round now, typed); after each sweep
    ``should_abort`` decides whether the surviving cohort still covers
    the round.  Every path must terminate the round — complete, shrink
    to completion, or typed :class:`~repro.common.errors.RoundAbort` —
    never hang.
    """

    family = "recovery"

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        raise NotImplementedError

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        raise NotImplementedError


@policy("recovery", "shrink-or-abort")
class ShrinkOrAbortRecovery(RecoveryPolicy):
    """The paper's §3 loop: shrink the affected leaf's goal per failed
    client; abort only when survivors no longer cover the quorum."""

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        return "shrink"

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        return survivors < quorum


@policy("recovery", "abort-fast")
class AbortFastRecovery(RecoveryPolicy):
    """Fail fast: the first declared failure aborts the round with a
    typed :class:`~repro.common.errors.RoundAbort` — no shrinking, no
    partial cohorts.  Cheapest possible failure handling; tournaments
    measure what that costs in attainment."""

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        return "abort"

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        return survivors < quorum
