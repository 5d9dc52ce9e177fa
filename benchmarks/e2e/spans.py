"""The traced run's span recorder: per-layer self time, outside in.

The tracer wraps each layer's public entry points (the :data:`LAYERS`
table) from the benchmark's own files, so ``src/`` carries no tracing
code.  Methods are wrapped on their class; module-level functions are
wrapped where their callers look them up (``plan_hierarchy`` is called
through ``repro.core.platform``'s namespace, for example).

Every call of a wrapped entry point records one span (layer, start, end,
parent span) in memory.  A span's self time is its duration minus the
time its child spans cover; spans nest strictly (one thread, call-stack
order), so the layers' self times plus the time no span covers add up to
the traced wall time exactly.

Process bodies and dispatcher closures run as callbacks of the event
kernel, so their time lands in ``sim`` (``Environment.run``) unless it
reaches another wrapped entry point.  Splitting it further needs spans
inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

#: layer -> entry points, each ``"module:Qualified.name"``.  A ``*`` class
#: stands for every class of the named family (see :func:`_targets`).
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim.engine:Environment.run",),
    "cluster": (
        "repro.cluster.network:Fabric.transfer",
        "repro.cluster.network:Fabric.node_health",
        "repro.cluster.network:ProcessorSharingLink.transfer",
        "repro.cluster.network:ProcessorSharingLink.set_rate_factor",
    ),
    "core.platform": (
        "repro.core.platform:AggregationPlatform.prepare_round",
        "repro.core.platform:AggregationPlatform.plan_round",
        "repro.core.platform:AggregationPlatform.place_updates",
        "repro.core.platform:AggregationPlatform.run_round",
    ),
    "core.roundsim": (
        "repro.core.roundsim:RoundEngine.run_round",
        "repro.core.roundsim:RoundEngine.install_round",
        "repro.core.roundsim:RoundEngine.finish_round",
    ),
    "core.stages": (
        "repro.core.stages:*stage.install_arrivals",
        "repro.core.stages:*stage.costs",
        "repro.core.stages:*stage.ensure_created",
        "repro.core.stages:*stage.begin_round",
        "repro.core.stages:*stage.end_round",
    ),
    "core.aggregator": (
        "repro.core.aggregator:AggregatorInstance.deliver",
        "repro.core.aggregator:AggregatorInstance.ensure_created",
    ),
    "core.policies": (
        "repro.core.policies:*policy.select",
        "repro.core.policies:*policy.place",
        "repro.core.policies:*policy.decide",
        "repro.core.policies:*policy.on_client_failed",
        "repro.core.policies:*policy.should_abort",
    ),
    "controlplane.hierarchy": (
        "repro.core.platform:plan_hierarchy",
        "repro.controlplane.hierarchy:HierarchyPlan.validate",
    ),
    "controlplane.reactive": (
        "repro.controlplane.reactive:Controller.tick",
        "repro.controlplane.reactive:Controller.healthy_nodes",
    ),
    "chaos": (
        "repro.chaos.injector:FaultInjector.install",
        "repro.chaos.injector:FaultInjector.install_fabric",
    ),
    "fl": (
        "repro.fl.fedavg:FedAvgAccumulator.add",
        "repro.fl.fedavg:FedAvgAccumulator.add_batch",
        "repro.fl.selector:Selector.select_available",
        "repro.traces.models:AvailabilityTrace.available",
        "repro.fl.population:ClientPopulation.available_mask",
    ),
    "traces.replay": ("repro.traces.replay:TraceReplayEngine.run",),
    "traces.slo": (
        "repro.traces.slo:SloTracker.observe",
        "repro.traces.slo:SloTracker.reject",
        "repro.traces.slo:SloTracker.abort",
        "repro.traces.slo:SloTracker.shed",
        "repro.traces.slo:SloTracker.merge",
        "repro.traces.slo:LatencyDigest.add",
        "repro.traces.slo:LatencyDigest.merge",
    ),
    "traces.shard": (
        "repro.traces.shard:ShardedReplayEngine.run",
        "repro.traces.shard:plan_shards",
        "repro.traces.shard:split_trace",
    ),
    "core.partition": (
        "repro.core.partition:PartitionedRoundEngine.run",
        "repro.core.partition:plan_cohorts",
    ),
    "geo": (
        "repro.geo.federation:GeoReplayEngine.run",
        "repro.geo.federation:route_trace",
        "repro.geo.federation:region_subtrace",
    ),
    "telemetry": (
        "repro.telemetry.bus:TelemetryBus.publish",
        "repro.telemetry.sink:JsonlSink.__call__",
        "repro.traces.shard:merge_streams",
        "repro.geo.federation:merge_streams",
    ),
}


def _family(module, family: str) -> list[type]:
    """Every class a ``*stage`` / ``*policy`` entry stands for."""
    if family == "stage":
        bases = (module.IngressStage, module.TransferStage, module.LifecycleStage)
        return [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, bases)
        ]
    registry = module.POLICIES
    classes = []
    for fam in registry.families():
        for name in registry.names(fam):
            for cls in type(registry.create(fam, name)).__mro__:
                if cls is not object and cls not in classes:
                    classes.append(cls)
    return classes


def _targets(entry: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs one LAYERS entry resolves to."""
    module_name, qualname = entry.split(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        return [(module, qualname)]
    owner, attr = qualname.rsplit(".", 1)
    if owner.startswith("*"):
        return [
            (cls, attr) for cls in _family(module, owner[1:]) if attr in vars(cls)
        ]
    return [(getattr(module, owner), attr)]


class Tracer:
    """Wraps the :data:`LAYERS` entry points while installed and keeps
    every span in memory."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        #: (layer index, start, end, parent span index or -1), in call order
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []

    def _wrap(self, layer: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the block; restore them after."""
        saved: list[tuple[object, str, object]] = []
        try:
            for layer, entries in enumerate(LAYERS.values()):
                for entry in entries:
                    for owner, attr in _targets(entry):
                        fn = vars(owner)[attr]
                        if inspect.isgeneratorfunction(fn):
                            raise TypeError(f"{entry}: a generator's span would end at its first yield")
                        saved.append((owner, attr, fn))
                        setattr(owner, attr, self._wrap(layer, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def attribute(self, wall: float) -> dict[str, float]:
        """Per-layer ``calls``/``self_s``/``share`` for spans recorded over
        ``wall`` seconds, plus ``unspanned.self_s`` (the rest of the wall)."""
        n = len(self.layers)
        calls = [0] * n
        self_s = [0.0] * n
        covered = [0.0] * len(self.spans)
        top = 0.0
        for span in self.spans:
            layer, start, end, parent = span
            calls[layer] += 1
            if parent < 0:
                top += end - start
            else:
                covered[parent] += end - start
        for index, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - covered[index]
        out: dict[str, float] = {}
        for i, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.share"] = self_s[i] / wall if wall > 0 else 0.0
        out["unspanned.self_s"] = wall - top
        return out
