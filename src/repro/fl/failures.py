"""Client-failure handling (§3).

"LIFL detects client failures with keep-alive heartbeats and enhances
resilience by over-provisioning the number of clients.  Aggregators in LIFL
are stateless, so new ones start without state synchronization upon an
aggregator failure."

* :class:`HeartbeatMonitor` — per-client keep-alive bookkeeping with a
  timeout-based failure verdict;
* :func:`apply_dropouts` — workload-side failure injection: removes a
  random subset of a round's arrivals, modelling mobile clients dying
  mid-round (used by the failure-injection tests to show the
  over-provisioned aggregation goal is still met).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.workloads.arrival import ClientArrival, RoundTrace


@dataclass
class HeartbeatMonitor:
    """Keep-alive tracking: a client is failed once its last heartbeat is
    older than ``timeout`` seconds."""

    timeout: float = 30.0
    _last_seen: dict[str, float] = field(default_factory=dict)
    _declared_failed: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigError("heartbeat timeout must be positive")

    def beat(self, client_id: str, now: float) -> None:
        """Record a keep-alive; a failed client that beats again recovers."""
        self._last_seen[client_id] = now
        self._declared_failed.discard(client_id)

    def last_seen(self, client_id: str) -> float | None:
        return self._last_seen.get(client_id)

    def is_alive(self, client_id: str, now: float) -> bool:
        """A client is alive when tracked, not declared failed, and its last
        beat is within the timeout.

        The declared-failed check matters: once :meth:`sweep` declares a
        client, only a fresh :meth:`beat` revives it.  Without the check an
        out-of-order query (``now`` earlier than the declaring sweep) would
        report a declared-failed client as alive, and the recovery layer
        would disagree with :attr:`failed` about who is gone.
        """
        if client_id in self._declared_failed:
            return False
        seen = self._last_seen.get(client_id)
        return seen is not None and (now - seen) <= self.timeout

    def sweep(self, now: float) -> list[str]:
        """Declare newly-failed clients; returns only the *new* failures so
        callers can react once per failure."""
        fresh = []
        for cid, seen in self._last_seen.items():
            if (now - seen) > self.timeout and cid not in self._declared_failed:
                self._declared_failed.add(cid)
                fresh.append(cid)
        return sorted(fresh)

    @property
    def failed(self) -> set[str]:
        return set(self._declared_failed)

    def tracked(self) -> int:
        return len(self._last_seen)


def apply_dropouts(
    trace: RoundTrace, dropout_rate: float, rng: np.random.Generator
) -> tuple[RoundTrace, list[ClientArrival]]:
    """Remove a random ``dropout_rate`` fraction of a round's arrivals.

    Returns (surviving trace, dropped arrivals).  With the selector's
    over-provisioning (§3), the surviving arrivals still cover the
    aggregation goal for any dropout rate below the provisioning margin.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate == 0.0 or not trace.arrivals:
        # An already-empty round has nothing to drop; returning early keeps
        # the RNG stream untouched so downstream draws are unaffected by
        # whether an empty round passed through the dropout stage.
        return RoundTrace(arrivals=list(trace.arrivals)), []
    mask = rng.uniform(size=len(trace.arrivals)) >= dropout_rate
    survivors = [a for a, keep in zip(trace.arrivals, mask) if keep]
    dropped = [a for a, keep in zip(trace.arrivals, mask) if not keep]
    return RoundTrace(arrivals=survivors), dropped
