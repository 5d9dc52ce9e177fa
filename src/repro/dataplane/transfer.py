"""Hop/pipeline cost algebra.

A :class:`Hop` is an affine cost stage: crossing it with an ``n``-byte
payload costs ``latency = lf + lb*n`` seconds of wall time and
``cpu = cf + cb*n`` CPU-seconds, and keeps ``copies`` transient buffer
copies of the payload alive.  A :class:`Pipeline` is an ordered sequence of
hops; its cost is the hop-wise sum, with a per-hop breakdown retained so the
experiments can reproduce the paper's stacked bars (the ``+SC`` / ``+MB``
shares of Fig. 7(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class HopCost:
    """Affine cost coefficients for one hop."""

    latency_fixed: float = 0.0
    latency_per_byte: float = 0.0
    cpu_fixed: float = 0.0
    cpu_per_byte: float = 0.0
    #: transient full-payload buffer copies this hop keeps alive
    copies: int = 0

    def __post_init__(self) -> None:
        for name in ("latency_fixed", "latency_per_byte", "cpu_fixed", "cpu_per_byte"):
            if getattr(self, name) < 0:
                raise ConfigError(f"hop cost {name} must be non-negative")
        if self.copies < 0:
            raise ConfigError("hop copies must be non-negative")

    def latency(self, nbytes: float) -> float:
        return self.latency_fixed + self.latency_per_byte * nbytes

    def cpu(self, nbytes: float) -> float:
        return self.cpu_fixed + self.cpu_per_byte * nbytes


@dataclass(frozen=True, slots=True)
class Hop:
    """A named cost stage, tagged with the component that pays for it.

    ``component`` feeds the CPU ledger buckets on worker nodes;
    ``group`` feeds stacked-bar breakdowns (``base`` / ``sidecar`` /
    ``broker`` in Fig. 7(a)).
    """

    name: str
    cost: HopCost
    component: str = "dataplane"
    group: str = "base"


@dataclass(frozen=True, slots=True)
class TransferResult:
    """Total cost of pushing one payload through a pipeline."""

    nbytes: float
    latency: float
    cpu_seconds: float
    #: peak count of simultaneous full-payload buffers along the path —
    #: the quantity behind Fig. 13(b)'s normalized memory cost.
    buffer_copies: int
    latency_by_group: dict[str, float] = field(default_factory=dict)
    cpu_by_group: dict[str, float] = field(default_factory=dict)
    cpu_by_component: dict[str, float] = field(default_factory=dict)


class Pipeline:
    """An ordered hop sequence with summable costs."""

    def __init__(self, name: str, hops: Iterable[Hop]) -> None:
        self.name = name
        self.hops: tuple[Hop, ...] = tuple(hops)
        if not self.hops:
            raise ConfigError(f"pipeline {name!r} has no hops")

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:
        return f"Pipeline({self.name!r}, hops=[{', '.join(h.name for h in self.hops)}])"

    def extended(self, name: str, extra: Iterable[Hop]) -> "Pipeline":
        return Pipeline(name, (*self.hops, *extra))

    def cost(self, nbytes: float) -> TransferResult:
        if nbytes < 0:
            raise ConfigError(f"payload size must be non-negative, got {nbytes}")
        latency = 0.0
        cpu = 0.0
        copies = 0
        lat_g: dict[str, float] = {}
        cpu_g: dict[str, float] = {}
        cpu_c: dict[str, float] = {}
        for hop in self.hops:
            hl = hop.cost.latency(nbytes)
            hc = hop.cost.cpu(nbytes)
            latency += hl
            cpu += hc
            copies += hop.cost.copies
            lat_g[hop.group] = lat_g.get(hop.group, 0.0) + hl
            cpu_g[hop.group] = cpu_g.get(hop.group, 0.0) + hc
            cpu_c[hop.component] = cpu_c.get(hop.component, 0.0) + hc
        return TransferResult(
            nbytes=nbytes,
            latency=latency,
            cpu_seconds=cpu,
            buffer_copies=copies,
            latency_by_group=lat_g,
            cpu_by_group=cpu_g,
            cpu_by_component=cpu_c,
        )
