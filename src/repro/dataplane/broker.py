"""Message-broker hops (§2.3 "Indirect networking", Fig. 5).

Serverless functions cannot hold direct routes, so prior serverless FL
systems interpose a stateful broker: every update is published into the
broker (kernel hop + enqueue) and consumed out of it (dequeue + kernel hop).
"""

from __future__ import annotations

from repro.dataplane.calibration import DataplaneCalibration
from repro.dataplane.transfer import Hop, HopCost


def broker_hop(cal: DataplaneCalibration, group: str = "broker") -> Hop:
    """Full broker round (publish + persist in queue + consume) for the
    serverless baseline; tagged ``group='broker'`` → Fig. 7(a)'s ``+MB``."""
    return Hop(
        "broker",
        HopCost(
            latency_fixed=cal.broker_fixed_lat,
            latency_per_byte=cal.broker_lat_per_byte,
            cpu_fixed=cal.broker_fixed_cpu,
            cpu_per_byte=cal.broker_cpu_per_byte,
            copies=1,
        ),
        component="broker",
        group=group,
    )
