"""The selector (§2.2): client selection + gateway mediation.

Two roles, per the paper: (1) choose a diverse set of participants so the
round sees a representative data sample; (2) act as the gateway-facing
mediator mapping selected clients to backend aggregators — in LIFL, to
worker-node gateways, which is exactly the placement plan's client→node
grouping (§5.1).

Resilience: LIFL "enhances resilience by over-provisioning the number of
clients" (§3) — the selector picks ``ceil(goal × over_provision)`` clients
so that the aggregation goal is met even if some clients drop out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.fl.client import FLClient

if TYPE_CHECKING:
    from repro.fl.population import ClientPopulation


@dataclass(frozen=True)
class SelectorConfig:
    """Selection policy knobs."""

    aggregation_goal: int
    over_provision: float = 1.2
    #: "diverse": weight selection by unique data size; "uniform": plain
    diversity: str = "uniform"

    def __post_init__(self) -> None:
        if self.aggregation_goal < 1:
            raise ConfigError("aggregation_goal must be >= 1")
        if self.over_provision < 1.0:
            raise ConfigError("over_provision must be >= 1.0")
        if self.diversity not in ("uniform", "diverse"):
            raise ConfigError(f"unknown diversity policy {self.diversity!r}")


class Selector:
    """Round-wise client selection over the available population."""

    def __init__(self, config: SelectorConfig) -> None:
        self.config = config

    def target_count(self) -> int:
        """Clients to select, including the over-provisioning margin."""
        return int(np.ceil(self.config.aggregation_goal * self.config.over_provision))

    def select(self, available: list[FLClient], rng: np.random.Generator) -> list[FLClient]:
        """Choose participants for one round.

        Fewer available clients than the target is fine — FL proceeds with
        what it has as long as the aggregation goal can eventually be met.
        """
        if not available:
            raise ConfigError("no clients available for selection")
        idx = self.draw(rng, len(available), lambda: [c.num_samples for c in available])
        return [available[int(i)] for i in idx]

    def draw(
        self,
        rng: np.random.Generator,
        size: int,
        num_samples: Callable[[], Sequence[int] | np.ndarray],
    ) -> np.ndarray:
        """The one participant draw every selection path makes: positions
        into a non-empty pool of ``size``, in draw order, from a single
        ``rng.choice(size, want, replace=False)``.

        "uniform" draws plainly.  "diverse" draws sample-size-proportional
        without replacement, favouring clients with more (hence likely
        more varied) local data: ``num_samples()`` gives the pool's sample
        counts in pool order and is only called then.  Equal pools in
        equal order therefore get equal picks whichever path built them.
        """
        want = min(self.target_count(), size)
        if self.config.diversity == "uniform":
            return rng.choice(size, size=want, replace=False)
        weights = np.maximum(1, num_samples()).astype(float)
        probs = weights / weights.sum()
        return rng.choice(size, size=want, replace=False, p=probs)

    def select_available(
        self,
        clients: list[FLClient],
        rng: np.random.Generator,
        is_available: Callable[[str], bool],
    ) -> list[FLClient]:
        """Availability-aware selection: filter the population through an
        availability predicate (e.g. an
        :class:`~repro.traces.models.AvailabilityTrace` evaluated at the
        round's arrival instant), then select from whoever is up.

        Returns an empty list when nobody is available — trace-driven
        serving treats that round as unformable rather than erroring, so
        day-night participation dips thin rounds instead of crashing the
        replay.
        """
        pool = [c for c in clients if is_available(c.client_id)]
        if not pool:
            return []
        return self.select(pool, rng)

    def select_population(
        self,
        population: "ClientPopulation",
        rng: np.random.Generator,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`select_available` over a struct-of-arrays
        :class:`~repro.fl.population.ClientPopulation`.

        ``mask`` is the availability mask (e.g.
        ``population.available_mask(at)``); returns the selected client
        *indices* in draw order.  Consumes the RNG stream exactly like the
        per-object path — the same :meth:`draw` over a pool of the same
        size in the same order — so for matching populations the two paths
        pick the same clients (property-tested).  Empty pool returns an
        empty index array (the unformable-round case).
        """
        pool = np.flatnonzero(mask)
        if pool.size == 0:
            return pool
        return pool[self.draw(rng, pool.size, lambda: population.num_samples[pool])]
