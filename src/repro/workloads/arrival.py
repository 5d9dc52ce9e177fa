"""Update arrivals: when each model update reaches the aggregation service.

A round's client arrivals (:func:`generate_round_trace`) are hibernation +
local training + upload for the mobile profile, training + upload for the
server profile; their arrival-rate series is what Fig. 10(a)/(d) plot.
Fig. 8 feeds batches of 20/60/100 updates "arriving at the aggregation
service concurrently"; the capacity probe of Appendix E drives a node with
increasing Poisson rates.  Which *rounds* arrive when is
:mod:`repro.traces`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.fl.client import FLClient


def concurrent_arrivals(n: int, jitter: float = 0.0, rng: np.random.Generator | None = None) -> list[float]:
    """``n`` updates at t=0, optionally with small uniform jitter (real
    trainers never hit the wire at the same nanosecond)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if jitter < 0:
        raise ConfigError("jitter must be non-negative")
    if jitter == 0.0 or rng is None:
        return [0.0] * n
    return sorted(float(t) for t in rng.uniform(0.0, jitter, size=n))


def staggered_arrivals(n: int, spread: float) -> list[float]:
    """``n`` updates evenly spread over ``spread`` seconds (lazy-vs-eager
    illustrations, Fig. 1)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if spread < 0:
        raise ConfigError("spread must be non-negative")
    if n == 1:
        return [0.0]
    return [spread * i / (n - 1) for i in range(n)]


def poisson_arrivals(rate: float, horizon: float, rng: np.random.Generator) -> list[float]:
    """Poisson process of ``rate`` arrivals/s over ``horizon`` seconds
    (Appendix E's capacity probing)."""
    if rate <= 0 or horizon <= 0:
        raise ConfigError("rate and horizon must be positive")
    times = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            break
        times.append(t)
    return times


@dataclass(frozen=True)
class ClientArrival:
    """One client's update arrival within a round (relative seconds)."""

    client_id: str
    arrival_time: float
    weight: float  # FedAvg sample-count weight
    train_duration: float
    hibernation: float


@dataclass
class RoundTrace:
    """All arrivals for one round, sorted by time."""

    arrivals: list[ClientArrival] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)

    def arrival_times(self) -> list[float]:
        return [a.arrival_time for a in self.arrivals]

    def time_to_goal(self, goal: int) -> float:
        """When the ``goal``-th update has arrived (the eager-aggregation
        cutoff); raises if the round cannot meet the goal."""
        if goal < 1 or goal > len(self.arrivals):
            raise ConfigError(f"goal {goal} outside [1, {len(self.arrivals)}]")
        return self.arrivals[goal - 1].arrival_time


def generate_round_trace(
    participants: list[FLClient],
    weights: dict[str, float],
    rng: np.random.Generator,
    upload_seconds: float = 0.0,
) -> RoundTrace:
    """Simulate one round's client behaviour into an arrival trace.

    ``upload_seconds`` is the client→cluster transfer time (the experiment
    platforms usually model the upload themselves and pass 0 here).
    """
    if not participants:
        raise ConfigError("round needs at least one participant")
    arrivals = []
    for client in participants:
        hib = client.hibernation(rng)
        train = client.training_duration(rng)
        arrivals.append(
            ClientArrival(
                client_id=client.client_id,
                arrival_time=hib + train + upload_seconds,
                weight=weights.get(client.client_id, 1.0),
                train_duration=train,
                hibernation=hib,
            )
        )
    arrivals.sort(key=lambda a: a.arrival_time)
    return RoundTrace(arrivals=arrivals)
