"""The arrival-driven serving loop: replay a trace against a platform.

Every scenario before this subsystem fired one fully-populated round at a
time and waited for it.  :class:`TraceReplayEngine` instead *serves*: a
dispatcher process walks a :class:`~repro.traces.models.Trace` on the
simulation clock and admits rounds as their arrival events fire —

* **overlapping rounds** — each admitted round is installed mid-simulation
  via :meth:`RoundEngine.install_round` on ONE shared environment and
  fabric, so rounds in flight (same tenant or not) contend on the same
  processor-sharing NIC links;
* **bounded admission** — at most ``max_inflight`` rounds per tenant run
  concurrently; excess arrivals wait in a bounded FIFO queue (queue wait
  is measured) and overflow beyond ``queue_limit`` is *rejected* — the
  load-shedding a real serving tier does under burst;
* **warm-pool turnover** — every settled round restocks the engine's
  lifecycle warm pool, so a steady trace converges to warm-start serving
  exactly like consecutive ``run_round`` calls did;
* **availability-aware participation** — with an
  :class:`~repro.traces.models.AvailabilityTrace`, each round samples its
  clients from the population available at the arrival instant (optionally
  through the :class:`repro.fl.selector.Selector`'s over-provisioning
  policy), so day-night swings thin real rounds;
* **correlated chaos** — with a :class:`ChaosCorrelation`, rounds admitted
  during availability dips get a seeded
  :class:`~repro.chaos.FaultInjector` dropout wave whose magnitude scales
  with the dip — the multi-round recovery loop the chaos subsystem could
  previously only exercise one round at a time;
* **closed-loop control** — with a
  :class:`~repro.controlplane.reactive.ControllerConfig`, a
  :class:`~repro.controlplane.reactive.Controller` tick process runs
  alongside the dispatcher: per-tenant admission limits and the warm pool
  scale reactively, placement avoids nodes a fresh
  :meth:`Fabric.node_health() <repro.cluster.network.Fabric.node_health>`
  snapshot reports degraded or partitioned (with bounded re-placement
  retries), overflow arrivals are *deferred* with a deadline instead of
  rejected, and an optional per-round watchdog aborts stalled rounds.
  With ``controller=None`` (the default) none of this machinery is
  constructed and the replay is byte-identical to a controller-less build.
  ``fault_plan`` installs a replay-scoped fabric chaos timeline
  (partitions / NIC degradations / slow nodes) for the controller to
  react to.

Determinism: every random draw (participants, arrival offsets, chaos
victims) derives from ``(seed, tenant, round_id)`` — never from admission
timing — so a replay is byte-reproducible from its seed.

Multi-core: ``run(shards=N)`` (with a ``platform_factory``) hands the
replay to :class:`~repro.traces.shard.ShardedReplayEngine`, which
partitions tenants across N forked worker processes — see
:mod:`repro.traces.shard`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ChaosError, ConfigError
from repro.common.rng import RngRegistry, make_rng
from repro.common.units import RESNET18_BYTES
from repro.core.policies import AdmissionContext, SelectionContext, resolve_policy
from repro.sim.engine import Environment, Process
from repro.telemetry.bus import ambient_bus
from repro.traces.models import AvailabilityTrace, Trace
from repro.traces.slo import SloTracker

if TYPE_CHECKING:  # import-light: replay only needs these for typing
    from typing import Callable

    from repro.chaos.plan import FaultPlan
    from repro.controlplane.reactive import ControllerConfig, ControllerReport
    from repro.core.platform import AggregationPlatform
    from repro.fl.client import FLClient
    from repro.fl.population import ClientPopulation
    from repro.fl.selector import Selector
    from repro.telemetry.bus import TelemetryBus
    from repro.traces.shard import ShardedReplayResult

__all__ = [
    "ChaosCorrelation",
    "ReplayConfig",
    "ReplayResult",
    "RoundRecord",
    "TraceReplayEngine",
    "validate_replay_inputs",
]


@dataclass(frozen=True)
class ReplayConfig:
    """Serving-loop knobs for one replay."""

    #: participants per round (the aggregation goal)
    round_updates: int = 8
    #: update wire size (bytes)
    nbytes: float = RESNET18_BYTES
    #: concurrent rounds admitted per tenant before queueing
    max_inflight: int = 4
    #: bounded admission queue per tenant; arrivals beyond it are rejected
    queue_limit: int = 16
    #: end-to-end (queue wait + service) target a round must meet
    slo_target_s: float = 30.0
    #: within-round update arrival spread (uniform [0, spread))
    arrival_spread_s: float = 2.0
    include_eval: bool = False
    #: selection-policy name (``"selection"`` family of
    #: :mod:`repro.core.policies`).  Empty string derives the default from
    #: the inputs given — ``population`` / ``availability-aware`` /
    #: ``random`` — reproducing pre-registry behaviour byte for byte.
    selection_policy: str = ""
    #: admission-policy name (``"admission"`` family).  Empty string means
    #: ``bounded-queue``, or ``defer-with-deadline`` when a controller
    #: with a deferral deadline runs — again the pre-registry behaviour.
    admission_policy: str = ""
    #: deferral budget for a standalone ``defer-with-deadline`` admission
    #: policy (a controller's ``ControllerConfig.defer_deadline_s`` takes
    #: precedence when one runs)
    defer_deadline_s: float = 0.0
    #: accumulate per-round simulated CPU cost (``RoundResult.cpu_total``)
    #: and report ``cost_cpu_s`` / ``attainment_per_cost`` columns — off
    #: by default so existing rows stay byte-identical
    track_cost: bool = False

    def validate(self) -> None:
        if self.round_updates < 1:
            raise ConfigError("round_updates must be >= 1")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ConfigError("queue_limit must be >= 0")
        if self.slo_target_s <= 0:
            raise ConfigError("slo_target_s must be positive")
        if self.arrival_spread_s < 0:
            raise ConfigError("arrival_spread_s must be >= 0")
        if self.nbytes <= 0:
            raise ConfigError("nbytes must be positive")
        if self.defer_deadline_s < 0:
            raise ConfigError("defer_deadline_s must be >= 0")


@dataclass(frozen=True)
class ChaosCorrelation:
    """Couple fault injection to availability dips.

    A round admitted while the availability fraction sits below
    ``dip_threshold`` gets one dropout wave ``wave_delay_s`` after
    admission; the wave's dropout fraction grows linearly with the depth
    of the dip, up to ``max_fraction``.  Quorum/heartbeat knobs mirror
    :class:`repro.chaos.FaultPlan`.
    """

    dip_threshold: float = 0.5
    max_fraction: float = 0.6
    wave_delay_s: float = 0.5
    quorum_fraction: float = 0.4
    heartbeat_timeout: float = 4.0
    sweep_interval: float = 1.0
    #: recovery-policy name (``"recovery"`` family of
    #: :mod:`repro.core.policies`) for the waves' recovery controllers
    recovery_policy: str = "shrink-or-abort"

    def validate(self) -> None:
        if not 0.0 < self.dip_threshold <= 1.0:
            raise ConfigError("dip_threshold must be in (0, 1]")
        if not 0.0 < self.max_fraction <= 1.0:
            raise ConfigError("max_fraction must be in (0, 1]")
        if self.wave_delay_s < 0:
            raise ConfigError("wave_delay_s must be >= 0")
        # Every wave copies the recovery knobs into a FaultPlan: check them
        # by FaultPlan's rules now, not inside a replay at the first dip.
        try:
            self.wave_plan(seed=0, at=0.0, fraction=self.max_fraction).validate()
        except ChaosError as exc:
            raise ConfigError(f"chaos correlation: {exc}") from exc

    def wave_plan(self, seed: int, at: float, fraction: float) -> "FaultPlan":
        """The fault plan of one wave: ``fraction`` of the round's clients
        drop out at ``at``, under this correlation's recovery knobs."""
        from repro.chaos import DropoutWave, FaultPlan

        return FaultPlan(
            seed=seed,
            quorum_fraction=self.quorum_fraction,
            heartbeat_timeout=self.heartbeat_timeout,
            sweep_interval=self.sweep_interval,
            dropouts=(DropoutWave(at=at, fraction=fraction),),
            recovery_policy=self.recovery_policy,
        )

    def wave_fraction(self, availability: float) -> float:
        """Dropout fraction for a round seeing ``availability`` (0 = no
        wave; deeper dips drop more clients)."""
        if availability >= self.dip_threshold:
            return 0.0
        depth = (self.dip_threshold - availability) / self.dip_threshold
        return min(self.max_fraction, round(self.max_fraction * depth, 6))


@dataclass
class RoundRecord:
    """One served round's life: arrival → admission → completion."""

    tenant: int
    round_id: int
    arrival_at: float
    updates: int
    admit_at: float = -1.0
    complete_at: float = -1.0
    aborted: bool = False
    rejected: bool = False
    #: waited in the controller's deferral room past the bounded queue
    deferred: bool = False
    #: dropped by the control plane (deferral deadline or placement retries)
    shed: bool = False
    chaos_fraction: float = 0.0
    #: participant (offset, weight) pairs sampled at arrival time
    participants: list[tuple[float, float]] = field(default_factory=list)

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.admit_at - self.arrival_at)

    @property
    def service(self) -> float:
        return max(0.0, self.complete_at - self.admit_at)

    @property
    def latency(self) -> float:
        return self.queue_wait + self.service


@dataclass
class ReplayResult:
    """Everything one replay produced."""

    records: list[RoundRecord]
    slo: SloTracker
    horizon: float
    peak_inflight: int = 0
    peak_inflight_per_tenant: dict[int, int] = field(default_factory=dict)
    chaos_waves: int = 0
    clients_dropped: int = 0
    #: the control loop's report when the replay ran one (None otherwise,
    #: which keeps controller-less rows byte-identical)
    controller: "ControllerReport | None" = None
    #: simulated CPU-seconds spent serving (sum of finished rounds'
    #: ``cpu_total``) — always accumulated, reported only when the config
    #: asked for cost tracking
    cost_cpu_s: float = 0.0
    track_cost: bool = False

    @classmethod
    def merge(
        cls,
        parts: "list[ReplayResult]",
        horizon: float,
        slo_target_s: float,
        track_cost: bool,
    ) -> "ReplayResult":
        """Fold independent cells' results into one.

        SLO digests and tallies merge exactly; records re-interleave into
        the dispatch order (arrival time, tenant, round id) one engine
        emits; per-cell peak in-flight counts *sum* (cells peak
        independently — the sum bounds the fleet's concurrent rounds),
        per-tenant peaks take the max, and controller reports merge.
        """
        merged = cls(
            records=[],
            slo=SloTracker(slo_target_s),
            horizon=horizon,
            track_cost=track_cost,
        )
        peak_per_tenant: dict[int, int] = {}
        for res in parts:
            merged.slo.merge(res.slo)
            merged.records.extend(res.records)
            merged.peak_inflight += res.peak_inflight
            merged.chaos_waves += res.chaos_waves
            merged.clients_dropped += res.clients_dropped
            merged.cost_cpu_s += res.cost_cpu_s
            for tenant, peak in res.peak_inflight_per_tenant.items():
                if peak > peak_per_tenant.get(tenant, -1):
                    peak_per_tenant[tenant] = peak
            if res.controller is not None:
                if merged.controller is None:
                    from repro.controlplane.reactive import ControllerReport

                    merged.controller = ControllerReport()
                merged.controller.merge(res.controller)
        merged.records.sort(key=lambda r: (r.arrival_at, r.tenant, r.round_id))
        merged.peak_inflight_per_tenant = dict(sorted(peak_per_tenant.items()))
        return merged

    @property
    def rounds_overlapped(self) -> bool:
        return self.peak_inflight > 1

    def row(self) -> dict:
        """The flat scenario row: SLO report + serving-shape counters."""
        out = self.slo.report()
        out.update(
            peak_inflight=self.peak_inflight,
            tenants=len(self.peak_inflight_per_tenant),
            chaos_waves=self.chaos_waves,
            clients_dropped=self.clients_dropped,
        )
        if self.controller is not None:
            out.update(self.controller.row())
        if self.track_cost:
            # The tournament columns: simulated cost and the ranking metric
            # (SLO attainment bought per simulated CPU-second).
            cost = round(self.cost_cpu_s, 6)
            attain = out["slo_attainment"]
            out.update(
                cost_cpu_s=cost,
                attainment_per_cost=round(attain / cost, 9) if cost > 0 else 0.0,
            )
        return out


def validate_replay_inputs(
    config: ReplayConfig,
    *,
    availability: AvailabilityTrace | None = None,
    selector: "Selector | None" = None,
    clients: "list[FLClient] | None" = None,
    chaos: ChaosCorrelation | None = None,
    population: "ClientPopulation | None" = None,
    controller: "ControllerConfig | None" = None,
    fault_plan: "FaultPlan | None" = None,
) -> None:
    """Raise :class:`ConfigError` for replay inputs no engine can run.

    Every replay engine calls this at construction, so the sharded and geo
    engines reject a bad combination before any worker forks."""
    config.validate()
    if population is not None:
        # The struct-of-arrays path: availability masks, selection, and
        # weights all come from the population's arrays — it replaces
        # the clients-list + AvailabilityTrace + weights-dict trio.
        if clients is not None:
            raise ConfigError("population and clients are mutually exclusive")
        if selector is None:
            raise ConfigError("population-driven replay needs a selector")
        if availability is not None:
            raise ConfigError(
                "population carries its own availability windows — "
                "do not also pass an availability trace"
            )
        if chaos is not None:
            raise ConfigError(
                "chaos correlation needs the AvailabilityTrace path "
                "(population replay does not support it yet)"
            )
        if population.total_windows == 0:
            raise ConfigError(
                "population-driven replay needs availability windows "
                "(generate with horizon > 0)"
            )
    elif (selector is None) != (clients is None):
        raise ConfigError("selector and clients must be given together")
    if selector is not None and availability is None and population is None:
        raise ConfigError("selector-driven replay needs an availability trace")
    if chaos is not None:
        chaos.validate()
        if availability is None:
            raise ConfigError("chaos correlation needs an availability trace")
    if controller is not None:
        controller.validate()
    if fault_plan is not None:
        fault_plan.validate()
        if fault_plan.crashes or fault_plan.dropouts:
            raise ConfigError(
                "a replay fault_plan must be fabric-only (partitions, "
                "NIC degradations, slow nodes) — crash/dropout events "
                "target a single round's aggregators and belong to "
                "ChaosCorrelation or FaultInjector.install()"
            )


class TraceReplayEngine:
    """Drive one platform through one trace, measuring SLO behaviour.

    ``availability``/``weights`` opt into availability-aware rounds;
    ``selector``+``clients`` additionally route participation through the
    FL selector's over-provisioning policy; ``chaos`` couples dropout
    waves to availability dips.  The platform's engine, lifecycle stage
    (warm pool), and node fleet are shared by every round of the replay.
    """

    def __init__(
        self,
        platform: "AggregationPlatform | None",
        trace: Trace,
        config: ReplayConfig | None = None,
        availability: AvailabilityTrace | None = None,
        weights: dict[str, float] | None = None,
        selector: "Selector | None" = None,
        clients: "list[FLClient] | None" = None,
        chaos: ChaosCorrelation | None = None,
        seed: int = 0,
        platform_factory: "Callable[[], AggregationPlatform] | None" = None,
        population: "ClientPopulation | None" = None,
        controller: "ControllerConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
        telemetry: "TelemetryBus | None" = None,
    ) -> None:
        if platform is None and platform_factory is None:
            raise ConfigError("replay needs a platform or a platform_factory")
        self.platform = platform
        #: True when the caller handed us a live platform (vs one built
        #: lazily from the factory) — sharded runs must refuse it, since
        #: shards build their own platforms and a differently-configured
        #: factory would silently diverge from the supplied instance.
        self._platform_supplied = platform is not None
        self.platform_factory = platform_factory
        self.trace = trace
        self.config = config or ReplayConfig()
        self.availability = availability
        self.weights = dict(weights) if weights else {}
        validate_replay_inputs(
            self.config,
            availability=availability,
            selector=selector,
            clients=clients,
            chaos=chaos,
            population=population,
            controller=controller,
            fault_plan=fault_plan,
        )
        self.selector = selector
        self.clients = list(clients) if clients else []
        self.population = population
        self.chaos = chaos
        self.controller_config = controller
        self.fault_plan = fault_plan
        self.seed = seed
        #: the telemetry bus this replay emits into: an explicit argument
        #: wins, else the ambient bus a ``capture()`` block installed, else
        #: None — and a bus nobody subscribed to drops to None at run
        #: start, so the serving loop pays nothing per event (see
        #: :mod:`repro.telemetry.bus`)
        self.telemetry = telemetry if telemetry is not None else ambient_bus()
        #: one registry per replay: per-round participant streams and the
        #: policies' bound streams all derive from the replay seed
        self._rngs = RngRegistry(seed)
        self._selection = resolve_policy(
            "selection", self._selection_name(), self._rngs
        )
        self._admission = resolve_policy(
            "admission", self._admission_name(), self._rngs
        )

    # ------------------------------------------------------------- policies
    def _selection_name(self) -> str:
        """The configured selection policy, or the default derived from
        the inputs given — exactly the pre-registry branch order."""
        name = self.config.selection_policy
        if not name:
            if self.population is not None:
                return "population"
            return "availability-aware" if self.selector is not None else "random"
        if name == "population" and self.population is None:
            raise ConfigError("selection policy 'population' needs a population")
        if name == "availability-aware" and (
            self.selector is None or self.availability is None
        ):
            raise ConfigError(
                "selection policy 'availability-aware' needs selector, "
                "clients, and an availability trace"
            )
        return name

    def _admission_name(self) -> str:
        """The configured admission policy, or the default: the bounded
        queue — upgraded to the controller's deferral discipline when one
        runs with a deadline, as before the registry."""
        name = self.config.admission_policy
        if name:
            return name
        ctl = self.controller_config
        if ctl is not None and ctl.defer_deadline_s > 0:
            return "defer-with-deadline"
        return "bounded-queue"

    @property
    def _defer_deadline_s(self) -> float:
        ctl = self.controller_config
        return ctl.defer_deadline_s if ctl is not None else self.config.defer_deadline_s

    # ----------------------------------------------------------- participants
    def _selection_context(self, ev) -> SelectionContext:
        return SelectionContext(
            at=ev.at,
            tenant=ev.tenant,
            round_id=ev.round_id,
            round_updates=self.config.round_updates,
            availability=self.availability,
            weights=self.weights,
            selector=self.selector,
            clients=self.clients,
            population=self.population,
        )

    def _participants(self, ev) -> list[tuple[float, float]]:
        """Sample one round's (arrival offset, weight) pairs at its trace
        arrival instant, through the resolved selection policy — seeded by
        round identity, so admission timing never perturbs the draw.

        Draw order is fixed by contract: the policy's selection draws
        first, then the offset batch, then the (draw-free) weight lookup —
        so a registered default reproduces the pre-registry stream
        exactly.
        """
        cfg = self.config
        # Derived, not memoized: the round draws from its stream in this
        # one call, and a registry entry per round would grow with the
        # replay's history.
        rng = make_rng(self._rngs.seed, f"participants:{ev.tenant}:{ev.round_id}")
        ctx = self._selection_context(ev)
        picked = self._selection.select(ctx, rng)
        if len(picked) == 0:
            return []
        spread = cfg.arrival_spread_s
        offsets = (
            rng.uniform(0.0, spread, size=len(picked))
            if spread > 0
            else [0.0] * len(picked)
        )
        weights = self._selection.participant_weights(ctx, picked)
        return [(float(off), float(w)) for off, w in zip(offsets, weights)]

    # ---------------------------------------------------------------- replay
    def run(
        self, shards: int = 1, workers: int | None = None, inline: bool = False
    ) -> "ReplayResult | ShardedReplayResult":
        """Replay the trace; ``shards > 1`` partitions it across worker
        processes.

        Sharding needs a ``platform_factory`` (each shard builds its own
        platform) and returns a
        :class:`~repro.traces.shard.ShardedReplayResult` whose ``row()``
        matches this method's single-shard report shape.  ``workers``
        caps the forked worker processes (default: available CPUs);
        ``inline=True`` forces the shards to run in-process (forked and
        inline runs are byte-identical).  ``shards=1`` is exactly the
        sequential replay.
        """
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shards > 1:
            if self.platform_factory is None:
                raise ConfigError(
                    "sharded replay needs a platform_factory "
                    "(each shard builds its own platform)"
                )
            if self._platform_supplied:
                raise ConfigError(
                    "sharded replay ignores a supplied platform instance — "
                    "pass platform=None and let every shard build its own "
                    "from platform_factory"
                )
            from repro.traces.shard import ShardedReplayEngine

            return ShardedReplayEngine(
                self.platform_factory,
                self.trace,
                self.config,
                availability=self.availability,
                weights=self.weights or None,
                selector=self.selector,
                clients=self.clients or None,
                chaos=self.chaos,
                seed=self.seed,
                shards=shards,
                workers=workers,
                population=self.population,
                controller=self.controller_config,
                fault_plan=self.fault_plan,
                telemetry=self.telemetry,
            ).run(inline=inline)
        if self.platform is None:
            self.platform = self.platform_factory()
        cfg = self.config
        ctl_cfg = self.controller_config
        #: None unless someone is listening — every emission site below is
        #: guarded on this local, so an unsubscribed replay does no
        #: telemetry work at all
        tel = self.telemetry.or_none() if self.telemetry is not None else None
        engine = self.platform.engine
        env = Environment()
        fabric = engine.build_fabric(env)
        if self.fault_plan is not None:
            from repro.chaos import FaultInjector

            FaultInjector(self.fault_plan, telemetry=tel).install_fabric(env, fabric)
        admission = self._admission
        defer_deadline_s = self._defer_deadline_s
        if ctl_cfg is None:
            # A standalone deferral policy sheds rounds just like the
            # controller's would — surface the shed/deferred columns then.
            tracker = SloTracker(
                cfg.slo_target_s,
                controller=(admission.name == "defer-with-deadline"),
            )
        else:
            tracker = SloTracker(
                cfg.slo_target_s, window_s=ctl_cfg.burn_window_s, controller=True
            )
        records: list[RoundRecord] = []
        n_tenants = max(self.trace.tenants, 1)
        inflight = [0] * n_tenants
        pending: list[deque[RoundRecord]] = [deque() for _ in range(n_tenants)]
        #: overflow arrivals parked with a shed deadline (deferral policy)
        deferred: list[deque[tuple[RoundRecord, float]]] = [
            deque() for _ in range(n_tenants)
        ]
        result = ReplayResult(
            records=records,
            slo=tracker,
            horizon=self.trace.horizon,
            peak_inflight_per_tenant={t: 0 for t in range(n_tenants)},
            track_cost=cfg.track_cost,
        )
        #: terminal outcomes seen (reject/shed/abort/complete); the
        #: controller's tick loop ends when every trace event has one
        done = [0]
        if tel is not None:
            # The stream's self-describing prologue: everything a reader
            # needs to rebuild SLO accounting from the records alone.
            tel.emit(
                "replay-start",
                0.0,
                tenants=n_tenants,
                horizon=self.trace.horizon,
                slo_target_s=cfg.slo_target_s,
                events=len(self.trace.events),
                controller=tracker.controller,
            )

        def _shed(rec: RoundRecord, reason: str) -> None:
            rec.shed = True
            tracker.shed(at=env.now)
            if tel is not None:
                tel.emit(
                    "round-shed",
                    env.now,
                    tenant=rec.tenant,
                    round_id=rec.round_id,
                    reason=reason,
                )
            if controller is not None:
                controller._record(
                    env.now, "shed", f"t{rec.tenant}r{rec.round_id}", 0, reason
                )
            done[0] += 1

        def _promote(t: int) -> None:
            """Move deferred arrivals into the bounded queue as room opens,
            shedding any whose deadline already passed."""
            room = deferred[t]
            while room and len(pending[t]) < cfg.queue_limit:
                rec, deadline = room.popleft()
                if deadline <= env.now:
                    _shed(rec, "deferral deadline")
                    continue
                pending[t].append(rec)

        def _sweep(now: float) -> None:
            """Controller tick hook: expire deferred arrivals in place."""
            for t in range(n_tenants):
                room = deferred[t]
                while room and room[0][1] <= now:
                    rec, _ = room.popleft()
                    _shed(rec, "deferral deadline")

        def _drain(t: int) -> None:
            """Admit queued rounds while the tenant has free slots."""
            while inflight[t] < limits[t]:
                _promote(t)  # no-op unless a deferral policy parked rounds
                queue = pending[t]
                if not queue:
                    break
                admit(queue.popleft())

        def admit(rec: RoundRecord) -> None:
            if tel is not None:
                tel.emit(
                    "round-admitted",
                    env.now,
                    tenant=rec.tenant,
                    round_id=rec.round_id,
                    queued_s=max(0.0, env.now - rec.arrival_at),
                )
            inflight[rec.tenant] += 1
            total = sum(inflight)
            if total > result.peak_inflight:
                result.peak_inflight = total
            if inflight[rec.tenant] > result.peak_inflight_per_tenant[rec.tenant]:
                result.peak_inflight_per_tenant[rec.tenant] = inflight[rec.tenant]
            if controller is not None and ctl_cfg.placement_aware:
                Process(env, _place(rec), f"place:t{rec.tenant}r{rec.round_id}")
            else:
                updates, plan = self.platform.prepare_round(rec.participants, cfg.nbytes)
                _install(rec, updates, plan)

        def _place(rec: RoundRecord):
            """Chaos-aware placement: restrict placement to nodes passing
            the controller's health bar, re-check the chosen plan against a
            fresh snapshot before install, and retry with backoff when a
            node degraded in between.  Exhausted retries shed the round."""
            attempts = 0
            while True:
                healthy = controller.healthy_nodes()
                updates, plan = self.platform.prepare_round(
                    rec.participants, cfg.nbytes, nodes=healthy or None
                )
                bad = controller.plan_unhealthy(plan)
                if not bad:
                    _install(rec, updates, plan)
                    return
                attempts += 1
                controller._record(
                    env.now, "replan", ",".join(bad), 0, f"attempt={attempts}"
                )
                if attempts > ctl_cfg.placement_retries:
                    inflight[rec.tenant] -= 1
                    _shed(rec, "placement retries exhausted")
                    _drain(rec.tenant)
                    return
                if ctl_cfg.retry_backoff_s > 0:
                    yield env.timeout(ctl_cfg.retry_backoff_s)

        def _install(rec: RoundRecord, updates, plan) -> None:
            rec.admit_at = env.now
            if tel is not None:
                tel.emit(
                    "round-installed",
                    env.now,
                    tenant=rec.tenant,
                    round_id=rec.round_id,
                    updates=rec.updates,
                )
            tenant_round = engine.install_round(
                env, fabric, updates, plan, label=f"t{rec.tenant}r{rec.round_id}"
            )
            self._maybe_inject(env, fabric, engine, rec, tenant_round, result, tel)
            if controller is not None and ctl_cfg.round_deadline_s > 0:
                deadline_s = ctl_cfg.round_deadline_s

                def watchdog(_evt) -> None:
                    if tenant_round.top_done.triggered:
                        return
                    controller._record(
                        env.now,
                        "deadline-abort",
                        tenant_round.label,
                        0,
                        f"deadline={deadline_s}s",
                    )
                    tenant_round.top_done.fail(
                        DeadlineExceeded(tenant_round.label, deadline_s)
                    )

                env.timeout(deadline_s).callbacks.append(watchdog)

            def settled(evt) -> None:
                if not evt._ok:
                    evt.defuse()  # a quorum abort must not crash the replay
                    rec.aborted = True
                rec.complete_at = env.now
                res = engine.finish_round(
                    tenant_round, cfg.include_eval, start_time=rec.admit_at
                )
                result.clients_dropped += res.clients_dropped
                result.cost_cpu_s += res.cpu_total
                if rec.aborted:
                    tracker.abort(at=env.now)
                    if tel is not None:
                        tel.emit(
                            "round-aborted",
                            env.now,
                            tenant=rec.tenant,
                            round_id=rec.round_id,
                            queue_wait=rec.queue_wait,
                        )
                else:
                    tracker.observe(
                        rec.queue_wait, rec.service, deferred=rec.deferred, at=env.now
                    )
                    if tel is not None:
                        # Exactly the values the tracker just ingested, so
                        # slo_from_records rebuilds bit-identical digests.
                        tel.emit(
                            "round-settled",
                            env.now,
                            tenant=rec.tenant,
                            round_id=rec.round_id,
                            queue_wait=rec.queue_wait,
                            service=rec.service,
                            latency=rec.latency,
                            attained=rec.latency <= cfg.slo_target_s,
                            deferred=rec.deferred,
                        )
                done[0] += 1
                inflight[rec.tenant] -= 1
                _drain(rec.tenant)

            tenant_round.top_done.callbacks.append(settled)

        def _reject(rec: RoundRecord, reason: str = "queue-full") -> None:
            rec.rejected = True
            tracker.reject(at=env.now)
            if tel is not None:
                tel.emit(
                    "round-rejected",
                    env.now,
                    tenant=rec.tenant,
                    round_id=rec.round_id,
                    reason=reason,
                )
            done[0] += 1

        def _apply_admission(rec: RoundRecord) -> None:
            """Route one overflow arrival through the admission policy."""
            t = rec.tenant
            decision = admission.decide(
                AdmissionContext(
                    tenant=t,
                    queue_len=len(pending[t]),
                    queue_limit=cfg.queue_limit,
                    now=env.now,
                    defer_deadline_s=defer_deadline_s,
                )
            )
            if decision == "enqueue":
                if len(pending[t]) >= cfg.queue_limit:
                    raise ConfigError(
                        f"admission policy {admission.name!r} enqueued past "
                        f"queue_limit={cfg.queue_limit}"
                    )
                pending[t].append(rec)
            elif decision == "defer":
                rec.deferred = True
                deadline = env.now + defer_deadline_s
                deferred[t].append((rec, deadline))
                if tel is not None:
                    tel.emit(
                        "round-deferred",
                        env.now,
                        tenant=t,
                        round_id=rec.round_id,
                        deadline=deadline,
                    )
                if controller is not None:
                    controller._record(
                        env.now, "defer", f"t{t}r{rec.round_id}", 0, "queue full"
                    )
            elif decision == "evict-oldest":
                # Head drop: the queue's oldest waiter bounces (a rejection
                # — it never got served) and the newcomer takes its place.
                # A zero-length queue has no waiter to evict, so the
                # newcomer bounces instead.
                if pending[t]:
                    _reject(pending[t].popleft(), reason="evicted-oldest")
                    pending[t].append(rec)
                else:
                    _reject(rec)
            elif decision == "reject":
                _reject(rec)
            else:
                raise ConfigError(
                    f"admission policy {admission.name!r} returned unknown "
                    f"decision {decision!r}; valid: enqueue/reject/defer/"
                    "evict-oldest"
                )

        def dispatch():
            for ev in self.trace.events:
                delay = ev.at - env.now
                if delay > 0:
                    yield env.timeout(delay)
                participants = self._participants(ev)
                rec = RoundRecord(
                    tenant=ev.tenant,
                    round_id=ev.round_id,
                    arrival_at=ev.at,
                    updates=len(participants),
                    participants=participants,
                )
                records.append(rec)
                _promote(ev.tenant)
                if not participants:
                    # Nobody available: the service cannot form the round.
                    _reject(rec, reason="no-participants")
                elif inflight[ev.tenant] < limits[ev.tenant]:
                    admit(rec)
                else:
                    _apply_admission(rec)
                if tel is not None:
                    # One bounded queue-depth sample per trace arrival, for
                    # the arriving tenant, after its admission decision.
                    t = ev.tenant
                    tel.emit(
                        "queue-sample",
                        env.now,
                        tenant=t,
                        depth=len(pending[t]),
                        deferred=len(deferred[t]),
                        inflight=inflight[t],
                        limit=limits[t],
                    )

        controller = None
        if ctl_cfg is not None:
            from repro.controlplane.reactive import (
                Controller,
                DeadlineExceeded,
                pool_floor_for,
            )

            if self.fault_plan is not None:
                quorum_fraction = self.fault_plan.quorum_fraction
            elif self.chaos is not None:
                quorum_fraction = self.chaos.quorum_fraction
            else:
                quorum_fraction = 0.5
            pcfg = self.platform.config
            leaves = -(-cfg.round_updates // pcfg.updates_per_leaf)
            controller = Controller(
                ctl_cfg,
                env,
                fabric,
                engine.lifecycle.warm,
                tracker,
                node_names=engine.node_names,
                n_tenants=n_tenants,
                base_limit=cfg.max_inflight,
                pool_floor=pool_floor_for(
                    quorum_fraction, cfg.round_updates, pcfg.updates_per_leaf
                ),
                queue_depth=lambda t: len(pending[t]) + len(deferred[t]),
                on_limit_raised=_drain,
                sweep_deferred=_sweep,
                telemetry=tel,
            )
            controller.instances_per_round = leaves + 1
            limits = controller.limits
            result.controller = controller.report
        else:
            limits = [cfg.max_inflight] * n_tenants

        if self.trace.events:
            Process(env, dispatch(), "trace:dispatch")
            if controller is not None:
                expected = len(self.trace.events)
                controller.start(lambda: done[0] >= expected)
            env.run()
        for t in range(n_tenants):
            # A standalone deferral policy has no controller tick to expire
            # parked arrivals — anything still deferred at horizon is shed.
            while deferred[t]:
                rec, _ = deferred[t].popleft()
                _shed(rec, "replay ended")
        if tel is not None:
            from repro.perf.counters import snapshot

            tel.emit(
                "replay-end",
                env.now,
                rounds=len(records),
                completed=sum(
                    1 for r in records if not (r.aborted or r.rejected or r.shed)
                ),
                aborted=sum(1 for r in records if r.aborted),
                rejected=sum(1 for r in records if r.rejected),
                shed=sum(1 for r in records if r.shed),
                deferred=sum(1 for r in records if r.deferred),
            )
            tel.emit("perf-snapshot", env.now, **snapshot(env))
        return result

    # ----------------------------------------------------------------- chaos
    def _maybe_inject(
        self, env, fabric, engine, rec, tenant_round, result, tel=None
    ) -> None:
        """Attach a dropout wave to rounds admitted during availability
        dips (fraction scales with dip depth; seeded by round identity)."""
        chaos = self.chaos
        if chaos is None:
            return
        frac = chaos.wave_fraction(
            self.availability.availability_fraction(rec.arrival_at)
        )
        if frac <= 0.0:
            return
        from repro.chaos import FaultInjector

        seed = make_rng(self.seed, f"chaos:{rec.tenant}:{rec.round_id}").integers(
            0, 2**31 - 1
        )
        plan = chaos.wave_plan(int(seed), env.now + chaos.wave_delay_s, frac)
        FaultInjector(plan, telemetry=tel).install(
            env=env, fabric=fabric, engine=engine, tenants=[tenant_round]
        )
        rec.chaos_fraction = frac
        result.chaos_waves += 1
