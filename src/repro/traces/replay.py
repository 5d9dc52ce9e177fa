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

Structure: the inputs other than platform and trace are one frozen
:class:`ReplaySpec`.  Each run builds a private serving loop whose methods
are the phases of a round's life, and every :class:`RoundRecord` moves
along the :data:`ROUND_MOVES` table, so a round reaches exactly one
terminal outcome: settled, aborted, rejected or shed.

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
from functools import partial
from typing import TYPE_CHECKING

from repro.common.errors import ChaosError, ConfigError, SimulationError
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
    "ROUND_MOVES",
    "ChaosCorrelation",
    "ReplayConfig",
    "ReplayResult",
    "ReplaySpec",
    "RoundRecord",
    "TraceReplayEngine",
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


#: The round lifecycle: each state -> the states a round may move to from
#: it.  The four terminal states (settled, aborted, rejected, shed) lead
#: nowhere, so every round reaches exactly one of them, once.
ROUND_MOVES: dict[str, tuple[str, ...]] = {
    "arrived": ("queued", "deferred", "admitted", "rejected"),
    "queued": ("admitted", "rejected"),
    "deferred": ("queued", "shed"),
    "admitted": ("installed", "shed"),
    "installed": ("settled", "aborted"),
}


@dataclass
class RoundRecord:
    """One served round's life: arrival → admission → completion.

    ``state`` walks :data:`ROUND_MOVES` through :meth:`move`, which
    refuses every other step."""

    tenant: int
    round_id: int
    arrival_at: float
    updates: int
    admit_at: float = -1.0
    complete_at: float = -1.0
    state: str = "arrived"
    #: waited in the controller's deferral room past the bounded queue
    deferred: bool = False
    chaos_fraction: float = 0.0
    #: participant (offset, weight) pairs sampled at arrival time
    participants: list[tuple[float, float]] = field(default_factory=list)

    def move(self, state: str) -> None:
        if state not in ROUND_MOVES.get(self.state, ()):
            raise SimulationError(
                f"round t{self.tenant}r{self.round_id} cannot move "
                f"{self.state} -> {state}"
            )
        self.state = state

    @property
    def aborted(self) -> bool:
        return self.state == "aborted"

    @property
    def rejected(self) -> bool:
        return self.state == "rejected"

    @property
    def shed(self) -> bool:
        """Dropped by the control plane (deferral deadline or placement
        retries)."""
        return self.state == "shed"

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


@dataclass(frozen=True)
class ReplaySpec:
    """Everything a replay serves a trace with, apart from the platform.

    The sharded and geo engines hand one spec to every serving cell.
    Each engine calls :meth:`validate` once, at construction, so a bad
    combination fails before any worker forks; the cells do not check it
    again."""

    config: ReplayConfig = field(default_factory=ReplayConfig)
    availability: AvailabilityTrace | None = None
    weights: dict[str, float] | None = None
    selector: "Selector | None" = None
    clients: "list[FLClient] | None" = None
    chaos: ChaosCorrelation | None = None
    seed: int = 0
    population: "ClientPopulation | None" = None
    controller: "ControllerConfig | None" = None
    fault_plan: "FaultPlan | None" = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` for inputs no engine can run."""
        self.config.validate()
        selector, clients, chaos = self.selector, self.clients, self.chaos
        availability, population = self.availability, self.population
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
        if self.controller is not None:
            self.controller.validate()
        if self.fault_plan is not None:
            self.fault_plan.validate()
            if self.fault_plan.crashes or self.fault_plan.dropouts:
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
    The inputs other than the platform and trace are kept as one
    :class:`ReplaySpec`.
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
        # Copies of the caller's weights and clients; None stays None, so
        # the selector/clients pairing check sees what was passed.
        spec = ReplaySpec(
            config or ReplayConfig(),
            availability,
            dict(weights) if weights is not None else None,
            selector,
            list(clients) if clients is not None else None,
            chaos,
            seed,
            population,
            controller,
            fault_plan,
        )
        spec.validate()
        self._bind(platform, platform_factory, trace, spec, telemetry)

    @classmethod
    def _of_spec(cls, platform, trace, spec, telemetry) -> "TraceReplayEngine":
        """A replay of ``spec`` as given: a sharded or geo serving cell,
        whose engine validated the spec once already."""
        replay = cls.__new__(cls)
        replay._bind(platform, None, trace, spec, telemetry)
        return replay

    def _bind(self, platform, platform_factory, trace, spec, telemetry) -> None:
        self.platform = platform
        #: True when the caller handed us a live platform (vs one built
        #: lazily from the factory) — sharded runs must refuse it, since
        #: shards build their own platforms and a differently-configured
        #: factory would silently diverge from the supplied instance.
        self._platform_supplied = platform is not None
        self.platform_factory = platform_factory
        self.trace = trace
        self.spec = spec
        #: the telemetry bus this replay emits into: an explicit argument
        #: wins, else the ambient bus a ``capture()`` block installed, else
        #: None — and a bus nobody subscribed to drops to None at run
        #: start, so the serving loop pays nothing per event (see
        #: :mod:`repro.telemetry.bus`)
        self.telemetry = telemetry if telemetry is not None else ambient_bus()
        #: one registry per replay: per-round participant streams and the
        #: policies' bound streams all derive from the replay seed
        self._rngs = RngRegistry(spec.seed)
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
        spec = self.spec
        name = spec.config.selection_policy
        if not name:
            if spec.population is not None:
                return "population"
            return "availability-aware" if spec.selector is not None else "random"
        if name == "population" and spec.population is None:
            raise ConfigError("selection policy 'population' needs a population")
        if name == "availability-aware" and (
            spec.selector is None or spec.availability is None
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
        name = self.spec.config.admission_policy
        if name:
            return name
        ctl = self.spec.controller
        if ctl is not None and ctl.defer_deadline_s > 0:
            return "defer-with-deadline"
        return "bounded-queue"

    # ----------------------------------------------------------- participants
    def _selection_context(self, ev) -> SelectionContext:
        spec = self.spec
        return SelectionContext(
            at=ev.at,
            tenant=ev.tenant,
            round_id=ev.round_id,
            round_updates=spec.config.round_updates,
            availability=spec.availability,
            weights=spec.weights or {},
            selector=spec.selector,
            clients=spec.clients or [],
            population=spec.population,
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
        # Derived, not memoized: the round draws from its stream in this
        # one call, and a registry entry per round would grow with the
        # replay's history.
        rng = make_rng(self._rngs.seed, f"participants:{ev.tenant}:{ev.round_id}")
        ctx = self._selection_context(ev)
        picked = self._selection.select(ctx, rng)
        if len(picked) == 0:
            return []
        spread = self.spec.config.arrival_spread_s
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
                self.platform_factory, self.trace, self.spec, shards, workers, self.telemetry
            ).run(inline=inline)
        if self.platform is None:
            self.platform = self.platform_factory()
        return _ServingLoop(self).run()


#: the tracker tally each non-settled terminal state counts into
_TALLIES = {"aborted": "abort", "rejected": "reject", "shed": "shed"}


class _ServingLoop:
    """One run of a :class:`TraceReplayEngine`: the state its rounds share
    and one method per phase of a round's life.  Each phase moves the
    round along :data:`ROUND_MOVES`; :meth:`_end` is the one way out."""

    def __init__(self, replay: TraceReplayEngine) -> None:
        self.replay = replay
        self.trace = replay.trace
        spec = self.spec = replay.spec
        cfg = self.cfg = spec.config
        ctl_cfg = self.ctl_cfg = spec.controller
        self.platform = replay.platform
        engine = self.engine = replay.platform.engine
        #: None unless someone is listening — every emission site is
        #: guarded on it, so an unsubscribed replay does no telemetry
        #: work at all
        tel = self.tel = (
            replay.telemetry.or_none() if replay.telemetry is not None else None
        )
        env = self.env = Environment()
        self.fabric = engine.build_fabric(env)
        if spec.fault_plan is not None:
            from repro.chaos import FaultInjector

            FaultInjector(spec.fault_plan, telemetry=tel).install_fabric(
                env, self.fabric
            )
        self.admission = replay._admission
        #: a controller's deferral budget takes precedence over the config's
        self.defer_deadline_s = (ctl_cfg or cfg).defer_deadline_s
        if ctl_cfg is None:
            # A standalone deferral policy sheds rounds just like the
            # controller's would — surface the shed/deferred columns then.
            tracker = SloTracker(
                cfg.slo_target_s,
                controller=(self.admission.name == "defer-with-deadline"),
            )
        else:
            tracker = SloTracker(
                cfg.slo_target_s, window_s=ctl_cfg.burn_window_s, controller=True
            )
        self.tracker = tracker
        n_tenants = max(self.trace.tenants, 1)
        self.inflight = [0] * n_tenants
        self.pending: list[deque[RoundRecord]] = [deque() for _ in range(n_tenants)]
        #: overflow arrivals parked with a shed deadline (deferral policy)
        self.deferred: list[deque[tuple[RoundRecord, float]]] = [
            deque() for _ in range(n_tenants)
        ]
        self.result = ReplayResult(
            records=[],
            slo=tracker,
            horizon=self.trace.horizon,
            peak_inflight_per_tenant={t: 0 for t in range(n_tenants)},
            track_cost=cfg.track_cost,
        )
        #: terminal outcomes seen; the controller's tick loop ends when
        #: every trace event has one
        self.done = 0
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
        self.controller = None
        self.limits = [cfg.max_inflight] * n_tenants
        if ctl_cfg is not None:
            from repro.controlplane.reactive import Controller, pool_floor_for

            if spec.fault_plan is not None:
                quorum_fraction = spec.fault_plan.quorum_fraction
            elif spec.chaos is not None:
                quorum_fraction = spec.chaos.quorum_fraction
            else:
                quorum_fraction = 0.5
            pcfg = self.platform.config
            leaves = -(-cfg.round_updates // pcfg.updates_per_leaf)
            controller = self.controller = Controller(
                ctl_cfg,
                env,
                self.fabric,
                engine.lifecycle.warm,
                tracker,
                node_names=engine.node_names,
                n_tenants=n_tenants,
                base_limit=cfg.max_inflight,
                pool_floor=pool_floor_for(
                    quorum_fraction, cfg.round_updates, pcfg.updates_per_leaf
                ),
                queue_depth=self._queue_depth,
                on_limit_raised=self._drain,
                sweep_deferred=self._sweep,
                telemetry=tel,
            )
            controller.instances_per_round = leaves + 1
            self.limits = controller.limits
            self.result.controller = controller.report

    def run(self) -> ReplayResult:
        env, tel, records = self.env, self.tel, self.result.records
        if self.trace.events:
            Process(env, self._dispatch(), "trace:dispatch")
            if self.controller is not None:
                self.controller.start(self._all_done)
            env.run()
        for room in self.deferred:
            # A standalone deferral policy has no controller tick to expire
            # parked arrivals — anything still deferred at horizon is shed.
            while room:
                self._shed(room.popleft()[0], "replay ended")
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
        return self.result

    def _all_done(self) -> bool:
        return self.done >= len(self.trace.events)

    def _queue_depth(self, t: int) -> int:
        return len(self.pending[t]) + len(self.deferred[t])

    # ------------------------------------------------------------- arrival
    def _dispatch(self):
        env = self.env
        for ev in self.trace.events:
            delay = ev.at - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._arrive(ev)

    def _arrive(self, ev) -> None:
        """Form the round an arrival event names and route it: reject an
        unformable round, admit into a free slot, else ask the admission
        policy."""
        participants = self.replay._participants(ev)
        rec = RoundRecord(
            tenant=ev.tenant,
            round_id=ev.round_id,
            arrival_at=ev.at,
            updates=len(participants),
            participants=participants,
        )
        self.result.records.append(rec)
        t = ev.tenant
        self._promote(t)
        if not participants:
            # Nobody available: the service cannot form the round.
            self._reject(rec, reason="no-participants")
        elif self.inflight[t] < self.limits[t]:
            self._admit(rec)
        else:
            self._apply_admission(rec)
        if self.tel is not None:
            # One bounded queue-depth sample per trace arrival, for the
            # arriving tenant, after its admission decision.
            self.tel.emit(
                "queue-sample",
                self.env.now,
                tenant=t,
                depth=len(self.pending[t]),
                deferred=len(self.deferred[t]),
                inflight=self.inflight[t],
                limit=self.limits[t],
            )

    def _apply_admission(self, rec: RoundRecord) -> None:
        """Route one overflow arrival through the admission policy."""
        t, now = rec.tenant, self.env.now
        queue, limit, admission = self.pending[t], self.cfg.queue_limit, self.admission
        decision = admission.decide(
            AdmissionContext(
                tenant=t,
                queue_len=len(queue),
                queue_limit=limit,
                now=now,
                defer_deadline_s=self.defer_deadline_s,
            )
        )
        if decision == "enqueue":
            if len(queue) >= limit:
                raise ConfigError(
                    f"admission policy {admission.name!r} enqueued past "
                    f"queue_limit={limit}"
                )
            rec.move("queued")
            queue.append(rec)
        elif decision == "defer":
            rec.move("deferred")
            rec.deferred = True
            deadline = now + self.defer_deadline_s
            self.deferred[t].append((rec, deadline))
            if self.tel is not None:
                self.tel.emit(
                    "round-deferred",
                    now,
                    tenant=t,
                    round_id=rec.round_id,
                    deadline=deadline,
                )
            if self.controller is not None:
                self.controller._record(
                    now, "defer", f"t{t}r{rec.round_id}", 0, "queue full"
                )
        elif decision == "evict-oldest":
            # Head drop: the queue's oldest waiter bounces (a rejection —
            # it never got served) and the newcomer takes its place.  A
            # zero-length queue has no waiter to evict, so the newcomer
            # bounces instead.
            if queue:
                self._reject(queue.popleft(), reason="evicted-oldest")
                rec.move("queued")
                queue.append(rec)
            else:
                self._reject(rec)
        elif decision == "reject":
            self._reject(rec)
        else:
            raise ConfigError(
                f"admission policy {admission.name!r} returned unknown "
                f"decision {decision!r}; valid: enqueue/reject/defer/"
                "evict-oldest"
            )

    # ------------------------------------------------------------ queueing
    def _promote(self, t: int) -> None:
        """Move deferred arrivals into the bounded queue as room opens,
        shedding any whose deadline already passed."""
        room, queue = self.deferred[t], self.pending[t]
        while room and len(queue) < self.cfg.queue_limit:
            rec, deadline = room.popleft()
            if deadline <= self.env.now:
                self._shed(rec, "deferral deadline")
                continue
            rec.move("queued")
            queue.append(rec)

    def _sweep(self, now: float) -> None:
        """Controller tick hook: expire deferred arrivals in place."""
        for room in self.deferred:
            while room and room[0][1] <= now:
                self._shed(room.popleft()[0], "deferral deadline")

    def _drain(self, t: int) -> None:
        """Admit queued rounds while the tenant has free slots."""
        queue = self.pending[t]
        while self.inflight[t] < self.limits[t]:
            self._promote(t)  # no-op unless a deferral policy parked rounds
            if not queue:
                break
            self._admit(queue.popleft())

    # ------------------------------------------------------------- service
    def _admit(self, rec: RoundRecord) -> None:
        """Take a slot for ``rec`` and place it (at once, or through the
        controller's health-checked placement process)."""
        env, t, result = self.env, rec.tenant, self.result
        rec.move("admitted")
        if self.tel is not None:
            self.tel.emit(
                "round-admitted",
                env.now,
                tenant=t,
                round_id=rec.round_id,
                queued_s=max(0.0, env.now - rec.arrival_at),
            )
        inflight = self.inflight
        inflight[t] += 1
        total = sum(inflight)
        if total > result.peak_inflight:
            result.peak_inflight = total
        if inflight[t] > result.peak_inflight_per_tenant[t]:
            result.peak_inflight_per_tenant[t] = inflight[t]
        if self.controller is not None and self.ctl_cfg.placement_aware:
            Process(env, self._place(rec), f"place:t{t}r{rec.round_id}")
        else:
            updates, plan = self.platform.prepare_round(
                rec.participants, self.cfg.nbytes
            )
            self._install(rec, updates, plan)

    def _place(self, rec: RoundRecord):
        """Chaos-aware placement: restrict placement to nodes passing
        the controller's health bar, re-check the chosen plan against a
        fresh snapshot before install, and retry with backoff when a
        node degraded in between.  Exhausted retries shed the round."""
        controller, ctl_cfg = self.controller, self.ctl_cfg
        attempts = 0
        while True:
            healthy = controller.healthy_nodes()
            updates, plan = self.platform.prepare_round(
                rec.participants, self.cfg.nbytes, nodes=healthy or None
            )
            bad = controller.plan_unhealthy(plan)
            if not bad:
                self._install(rec, updates, plan)
                return
            attempts += 1
            controller._record(
                self.env.now, "replan", ",".join(bad), 0, f"attempt={attempts}"
            )
            if attempts > ctl_cfg.placement_retries:
                self.inflight[rec.tenant] -= 1
                self._shed(rec, "placement retries exhausted")
                self._drain(rec.tenant)
                return
            if ctl_cfg.retry_backoff_s > 0:
                yield self.env.timeout(ctl_cfg.retry_backoff_s)

    def _install(self, rec: RoundRecord, updates, plan) -> None:
        """Start the round on the shared environment and fabric; its top
        aggregator's completion calls :meth:`_settle`."""
        env, controller = self.env, self.controller
        rec.move("installed")
        rec.admit_at = env.now
        if self.tel is not None:
            self.tel.emit(
                "round-installed",
                env.now,
                tenant=rec.tenant,
                round_id=rec.round_id,
                updates=rec.updates,
            )
        tenant_round = self.engine.install_round(
            env, self.fabric, updates, plan, label=f"t{rec.tenant}r{rec.round_id}"
        )
        self._maybe_inject(rec, tenant_round)
        if controller is not None and self.ctl_cfg.round_deadline_s > 0:
            deadline_s = self.ctl_cfg.round_deadline_s

            def watchdog(_evt) -> None:
                if tenant_round.top_done.triggered:
                    return
                from repro.controlplane.reactive import DeadlineExceeded

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
        tenant_round.top_done.callbacks.append(partial(self._settle, rec, tenant_round))

    def _maybe_inject(self, rec: RoundRecord, tenant_round) -> None:
        """Attach a dropout wave to rounds admitted during availability
        dips (fraction scales with dip depth; seeded by round identity)."""
        chaos = self.spec.chaos
        if chaos is None:
            return
        frac = chaos.wave_fraction(
            self.spec.availability.availability_fraction(rec.arrival_at)
        )
        if frac <= 0.0:
            return
        from repro.chaos import FaultInjector

        seed = make_rng(
            self.spec.seed, f"chaos:{rec.tenant}:{rec.round_id}"
        ).integers(0, 2**31 - 1)
        plan = chaos.wave_plan(int(seed), self.env.now + chaos.wave_delay_s, frac)
        FaultInjector(plan, telemetry=self.tel).install(
            env=self.env, fabric=self.fabric, engine=self.engine, tenants=[tenant_round]
        )
        rec.chaos_fraction = frac
        self.result.chaos_waves += 1

    def _settle(self, rec: RoundRecord, tenant_round, evt) -> None:
        """The round's top aggregator finished (or failed): account it
        and hand its slot to the tenant's queue."""
        ok = evt._ok
        if not ok:
            evt.defuse()  # a quorum abort must not crash the replay
        rec.complete_at = self.env.now
        res = self.engine.finish_round(
            tenant_round, self.cfg.include_eval, start_time=rec.admit_at
        )
        self.result.clients_dropped += res.clients_dropped
        self.result.cost_cpu_s += res.cpu_total
        if ok:
            # Exactly the values the tracker ingests, so slo_from_records
            # rebuilds bit-identical digests.
            self._end(
                rec,
                "settled",
                queue_wait=rec.queue_wait,
                service=rec.service,
                latency=rec.latency,
                attained=rec.latency <= self.cfg.slo_target_s,
                deferred=rec.deferred,
            )
        else:
            self._end(rec, "aborted", queue_wait=rec.queue_wait)
        self.inflight[rec.tenant] -= 1
        self._drain(rec.tenant)

    # ------------------------------------------------------------ outcomes
    def _reject(self, rec: RoundRecord, reason: str = "queue-full") -> None:
        self._end(rec, "rejected", reason=reason)

    def _shed(self, rec: RoundRecord, reason: str) -> None:
        self._end(rec, "shed", reason=reason)
        if self.controller is not None:
            self.controller._record(
                self.env.now, "shed", f"t{rec.tenant}r{rec.round_id}", 0, reason
            )

    def _end(self, rec: RoundRecord, state: str, **fields) -> None:
        """Move ``rec`` to terminal ``state``: tally it, emit
        ``round-<state>`` and count it done."""
        now = self.env.now
        rec.move(state)
        if state == "settled":
            self.tracker.observe(
                rec.queue_wait, rec.service, deferred=rec.deferred, at=now
            )
        else:
            getattr(self.tracker, _TALLIES[state])(at=now)
        if self.tel is not None:
            self.tel.emit(
                f"round-{state}", now, tenant=rec.tenant, round_id=rec.round_id, **fields
            )
        self.done += 1
