"""Worker node model: hardware spec and per-component CPU accounting.

The paper's evaluation reports cumulative CPU time per system (Figs. 8(b),
9(b)/(d), 10(c)/(f)).  Reproducing those requires an explicit account of
*which component* burned CPU: aggregation compute, kernel network
processing, sidecar mediation, broker hops, gateway payload processing,
cold-start initialization.  :class:`CpuAccount` tallies each bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.units import GB


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static hardware description of one worker node.

    Defaults follow the paper's CloudLab testbed (§6): 64-core Cascade Lake,
    192 GB memory, 10 Gb NIC (1.25e9 bytes/s).
    """

    name: str
    cores: int = 64
    memory_bytes: float = 192 * GB
    nic_bps: float = 1.25e9
    #: Maximum service capacity MC_i — max model updates aggregated
    #: simultaneously (§5.1; measured offline per Appendix E; 20 on testbed).
    max_service_capacity: int = 20

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SimulationError(f"node needs >= 1 core, got {self.cores}")
        if self.memory_bytes <= 0 or self.nic_bps <= 0:
            raise SimulationError("memory and NIC capacity must be positive")
        if self.max_service_capacity < 1:
            raise SimulationError("max_service_capacity must be >= 1")


@dataclass
class CpuAccount:
    """CPU-seconds burned on this node, bucketed by component."""

    buckets: dict[str, float] = field(default_factory=dict)

    def charge(self, component: str, cpu_seconds: float) -> None:
        if cpu_seconds < 0:
            raise SimulationError(f"negative CPU charge: {cpu_seconds}")
        try:
            self.buckets[component] += cpu_seconds
        except KeyError:
            self.buckets[component] = cpu_seconds

    def total(self) -> float:
        return sum(self.buckets.values())

    def get(self, component: str) -> float:
        return self.buckets.get(component, 0.0)
