"""Scenario specs and the decorator-based registry.

A *scenario* is one named, reproducible experiment: a run function plus a
parameter grid.  The grid is expanded into individual :class:`RunSpec`\\ s
(the cartesian product of the axes, in declaration order); each run is an
independent, picklable unit of work the campaign runner can execute in a
worker process.  Run functions return JSON-serializable *rows* (lists of
flat dicts); a scenario-level ``render`` callable turns the concatenated
rows back into the report text (tables, ratio lines) the paper-figure
modules have always printed — so sequential and parallel campaigns produce
byte-identical reports.

Registering a scenario::

    @scenario(
        name="fig04",
        title="hierarchy x data plane, one node",
        grid={"setting": ("NH (kernel)", "WH (kernel)", "WH (LIFL)")},
        render=_render,
        workload="8 trainers, ResNet-152",
        metrics=("round_seconds",),
    )
    def fig04(run: ScenarioRun) -> list[dict]:
        ...
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng

#: a run function: receives one expanded grid point, returns JSON rows
RunFn = Callable[["ScenarioRun"], list[dict]]
#: renders the concatenated rows of all runs into the scenario's report
RenderFn = Callable[[list[dict]], str]


@dataclass(frozen=True)
class ScenarioRun:
    """One expanded grid point, handed to the scenario's run function."""

    scenario: str
    index: int
    params: Mapping[str, Any]
    #: deterministic per-run seed derived from (campaign seed, scenario,
    #: index).  Paper-figure scenarios pin their own calibrated seeds and
    #: ignore this; exploratory scenarios should draw all randomness from
    #: it (via :meth:`rng`) so campaigns are reproducible end to end.
    seed: int
    #: the campaign-level seed, for scenarios that must share one workload
    #: across several grid points (e.g. comparing systems on one trace)
    campaign_seed: int = 0

    def rng(self, stream: str = "") -> np.random.Generator:
        return make_rng(self.seed, stream or self.scenario)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: metadata + run/render callables."""

    name: str
    title: str
    run: RunFn
    #: ordered parameter grid; expanded as a cartesian product
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    render: RenderFn | None = None
    #: human description of the workload the scenario drives
    workload: str = ""
    #: the metric columns the scenario's rows report
    metrics: tuple[str, ...] = ()
    #: True when the scenario reproduces a paper figure/table
    paper: bool = True
    description: str = ""
    #: subsystem tags (``paper``, ``traces``, ``chaos``, ``perf``, …) —
    #: ``--list`` groups the catalogue by these and ``--filter tag=X``
    #: selects scenarios by subsystem
    tags: tuple[str, ...] = ()

    def expand(self, campaign_seed: int = 0) -> list[ScenarioRun]:
        """The scenario's run list: one :class:`ScenarioRun` per grid point
        (a single parameterless run when the grid is empty)."""
        axes = [(key, tuple(values)) for key, values in self.grid]
        for key, values in axes:
            if not values:
                raise ConfigError(f"scenario {self.name!r}: empty grid axis {key!r}")
        combos: Iterable[tuple[Any, ...]] = itertools.product(*(v for _, v in axes)) if axes else [()]
        runs = []
        for index, combo in enumerate(combos):
            params = {key: value for (key, _), value in zip(axes, combo)}
            runs.append(
                ScenarioRun(
                    scenario=self.name,
                    index=index,
                    params=params,
                    seed=derive_seed(campaign_seed, self.name, index),
                    campaign_seed=campaign_seed,
                )
            )
        return runs


def derive_seed(campaign_seed: int, scenario: str, index: int) -> int:
    """Deterministic per-run seed, stable across processes and job counts."""
    return int(make_rng(campaign_seed, f"run:{scenario}:{index}").integers(0, 2**31 - 1))


_REGISTRY: dict[str, ScenarioSpec] = {}


def scenario(
    name: str,
    title: str,
    grid: Mapping[str, Sequence[Any]] | None = None,
    render: RenderFn | None = None,
    workload: str = "",
    metrics: Sequence[str] = (),
    paper: bool = True,
    tags: Sequence[str] = (),
) -> Callable[[RunFn], RunFn]:
    """Decorator: register ``fn`` as scenario ``name``.

    The decorated function stays usable directly (tests call it with a
    hand-built :class:`ScenarioRun`); registration only adds it to the
    campaign catalogue.  ``tags`` name the subsystems the scenario
    exercises (``--filter tag=chaos`` selects by them).
    """

    def deco(fn: RunFn) -> RunFn:
        if name in _REGISTRY:
            raise ConfigError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            title=title,
            run=fn,
            grid=tuple((k, tuple(v)) for k, v in (grid or {}).items()),
            render=render,
            workload=workload,
            metrics=tuple(metrics),
            paper=paper,
            description=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            tags=tuple(tags),
        )
        return fn

    return deco


def get_scenario(name: str) -> ScenarioSpec:
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; have {sorted(_REGISTRY)}"
        ) from None


def all_scenarios() -> list[ScenarioSpec]:
    """Every registered scenario, in registration order."""
    discover()
    return list(_REGISTRY.values())


def match_scenarios(prefixes: Sequence[str] | None) -> list[ScenarioSpec]:
    """Scenarios selected by the CLI's historical prefix match: a spec is
    kept when any wanted token is a prefix of its name or vice versa."""
    specs = all_scenarios()
    if not prefixes:
        return specs
    return [
        s
        for s in specs
        if any(s.name.startswith(w) or w.startswith(s.name) for w in prefixes)
    ]


_DISCOVERED = False


def discover() -> None:
    """Import every module that registers scenarios (idempotent).

    Worker processes call this too, so a spawned interpreter rebuilds the
    same registry the parent expanded runs from.
    """
    global _DISCOVERED
    if _DISCOVERED:
        return
    import repro.experiments  # noqa: F401  (registers all figure scenarios)

    # Only mark discovery complete once the import succeeded; otherwise a
    # transient import failure would leave an empty registry that masks
    # the real error on every later lookup.
    _DISCOVERED = True
