"""Trace models: round-arrival processes and client-availability traces.

Everything here is *pure data from a seed*: a :class:`Trace` is a sorted
timeline of :class:`TraceEvent`\\ s (round arrivals, per tenant), an
:class:`AvailabilityTrace` is a set of per-client availability windows.
The generators draw every sample from :func:`repro.common.rng.make_rng`
streams, so the same ``(generator, parameters, seed)`` triple replays
byte-identically in any process — the property the golden-determinism
tests pin.

Three arrival processes cover the serving-workload literature's shapes:

* :func:`poisson_trace` — homogeneous Poisson (the classic open-loop
  arrival assumption);
* :func:`diurnal_trace` — nonhomogeneous Poisson with a sinusoidal rate
  (day/night load), sampled by thinning;
* :func:`mmpp_trace` — a two-state Markov-modulated Poisson process
  (calm/burst), the standard bursty-traffic model.

External traces load through :func:`load_trace` (CSV or JSONL) so real
cluster logs can drive the same replay loop.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng

__all__ = [
    "AvailabilityTrace",
    "Trace",
    "TraceEvent",
    "availability_trace",
    "diurnal_trace",
    "load_trace",
    "merge_traces",
    "mmpp_trace",
    "poisson_trace",
    "save_trace",
]


@dataclass(frozen=True)
class TraceEvent:
    """One round arrival: tenant ``tenant`` requests round ``round_id`` at
    time ``at`` (seconds from trace start)."""

    at: float
    tenant: int = 0
    round_id: int = 0

    def check(self) -> None:
        if self.at < 0:
            raise ConfigError(f"trace event time must be >= 0, got {self.at}")
        if self.tenant < 0:
            raise ConfigError(f"trace event tenant must be >= 0, got {self.tenant}")


@dataclass
class Trace:
    """A replayable timeline of round arrivals.

    Events are sorted by ``(at, tenant, round_id)``; ``round_id`` numbers
    each tenant's arrivals 0..n-1 in time order.  ``source`` records how
    the trace was built (generator + parameters) for reports.
    """

    events: list[TraceEvent] = field(default_factory=list)
    horizon: float = 0.0
    source: str = ""

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def tenants(self) -> int:
        """Number of distinct tenants (max tenant id + 1; 0 when empty)."""
        return max((ev.tenant for ev in self.events), default=-1) + 1

    def validate(self) -> None:
        prev = None
        seen: dict[int, int] = {}
        for ev in self.events:
            ev.check()
            if ev.at > self.horizon:
                raise ConfigError(
                    f"trace event at t={ev.at} beyond horizon {self.horizon}"
                )
            if prev is not None and ev.at < prev:
                raise ConfigError("trace events must be sorted by time")
            prev = ev.at
            want = seen.get(ev.tenant, 0)
            if ev.round_id != want:
                raise ConfigError(
                    f"tenant {ev.tenant} round ids must be sequential: "
                    f"expected {want}, got {ev.round_id}"
                )
            seen[ev.tenant] = want + 1


def _finish(events: list[TraceEvent], horizon: float, source: str) -> Trace:
    """Sort, renumber round ids per tenant, and wrap into a Trace."""
    events.sort(key=lambda e: (e.at, e.tenant, e.round_id))
    next_id: dict[int, int] = {}
    out = []
    for ev in events:
        rid = next_id.get(ev.tenant, 0)
        next_id[ev.tenant] = rid + 1
        out.append(TraceEvent(at=ev.at, tenant=ev.tenant, round_id=rid))
    trace = Trace(events=out, horizon=horizon, source=source)
    trace.validate()
    return trace


# ------------------------------------------------------------------ arrivals
def poisson_trace(
    rate_per_min: float, horizon: float, seed: int = 0, tenant: int = 0
) -> Trace:
    """Homogeneous Poisson round arrivals at ``rate_per_min`` per minute."""
    if rate_per_min <= 0 or horizon <= 0:
        raise ConfigError("rate and horizon must be positive")
    rng = make_rng(seed, f"trace:poisson:{tenant}")
    rate = rate_per_min / 60.0
    events: list[TraceEvent] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            break
        events.append(TraceEvent(at=t, tenant=tenant))
    return _finish(
        events, horizon, f"poisson(rate={rate_per_min}/min, horizon={horizon}s)"
    )


def diurnal_trace(
    base_rate_per_min: float,
    horizon: float,
    amplitude: float = 0.8,
    period: float = 86400.0,
    phase: float = 0.0,
    phase_shift_s: float = 0.0,
    seed: int = 0,
    tenant: int = 0,
) -> Trace:
    """Nonhomogeneous Poisson arrivals with a sinusoidal (diurnal) rate.

    The instantaneous rate is ``base × (1 + amplitude · sin(2π(t+phase+
    phase_shift_s)/period))``; sampled exactly by thinning against the
    peak rate, so the trace is deterministic in the seed regardless of
    the rate shape.  ``phase_shift_s`` is an additive offset on top of
    ``phase`` — the follow-the-sun knob: give each region's tenants a
    shift of ``region_index × period / n_regions`` and their load peaks
    march around the planet (:mod:`repro.geo`).  Zero shift reproduces
    the unshifted trace byte for byte.
    """
    if base_rate_per_min <= 0 or horizon <= 0:
        raise ConfigError("rate and horizon must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError(f"amplitude must be in [0, 1), got {amplitude}")
    if period <= 0:
        raise ConfigError("period must be positive")
    rng = make_rng(seed, f"trace:diurnal:{tenant}")
    base = base_rate_per_min / 60.0
    peak = base * (1.0 + amplitude)
    two_pi = 2.0 * math.pi
    events: list[TraceEvent] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= horizon:
            break
        shifted = t + phase + phase_shift_s
        rate_t = base * (1.0 + amplitude * math.sin(two_pi * shifted / period))
        if float(rng.uniform()) * peak < rate_t:
            events.append(TraceEvent(at=t, tenant=tenant))
    shift_tag = f", shift={phase_shift_s}s" if phase_shift_s else ""
    return _finish(
        events,
        horizon,
        f"diurnal(base={base_rate_per_min}/min, amp={amplitude}, "
        f"period={period}s{shift_tag}, horizon={horizon}s)",
    )


def mmpp_trace(
    calm_rate_per_min: float,
    burst_rate_per_min: float,
    horizon: float,
    mean_calm: float = 120.0,
    mean_burst: float = 20.0,
    seed: int = 0,
    tenant: int = 0,
) -> Trace:
    """Two-state Markov-modulated Poisson arrivals (calm ↔ burst).

    State sojourns are exponential (``mean_calm`` / ``mean_burst``
    seconds); within a state, arrivals are Poisson at that state's rate —
    the canonical bursty-workload model.
    """
    if calm_rate_per_min <= 0 or burst_rate_per_min <= 0 or horizon <= 0:
        raise ConfigError("rates and horizon must be positive")
    if burst_rate_per_min <= calm_rate_per_min:
        raise ConfigError("burst rate must exceed calm rate")
    if mean_calm <= 0 or mean_burst <= 0:
        raise ConfigError("mean sojourn times must be positive")
    rng = make_rng(seed, f"trace:mmpp:{tenant}")
    rates = (calm_rate_per_min / 60.0, burst_rate_per_min / 60.0)
    means = (mean_calm, mean_burst)
    events: list[TraceEvent] = []
    t = 0.0
    state = 0  # start calm
    while t < horizon:
        sojourn = float(rng.exponential(means[state]))
        end = min(t + sojourn, horizon)
        rate = rates[state]
        at = t
        while True:
            at += float(rng.exponential(1.0 / rate))
            if at >= end:
                break
            events.append(TraceEvent(at=at, tenant=tenant))
        t = end
        state = 1 - state
    return _finish(
        events,
        horizon,
        f"mmpp(calm={calm_rate_per_min}/min, burst={burst_rate_per_min}/min, "
        f"sojourn={mean_calm}/{mean_burst}s, horizon={horizon}s)",
    )


def merge_traces(*traces: Trace) -> Trace:
    """One timeline from several per-tenant traces (round ids renumbered
    per tenant in time order; horizon is the max of the inputs)."""
    if not traces:
        raise ConfigError("merge needs at least one trace")
    events = [ev for trace in traces for ev in trace.events]
    horizon = max(t.horizon for t in traces)
    source = " + ".join(t.source or "?" for t in traces)
    return _finish(events, horizon, source)


# ------------------------------------------------------------- availability
@dataclass
class AvailabilityTrace:
    """Per-client availability windows over a horizon (FedScale-style).

    ``windows[client_id]`` is a sorted tuple of ``[start, end)`` intervals
    during which the client can be selected for a round.  Built by
    :func:`availability_trace` (session/churn distributions with optional
    day-night modulation) or assembled directly from log data.
    """

    horizon: float
    windows: dict[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)
    #: lazily compiled CSR flat index over all windows (sorted-id order):
    #: (ids, win_start, win_end, row_index, (source dict, its client count))
    _compiled: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def client_ids(self) -> list[str]:
        return sorted(self.windows)

    def is_available(self, client_id: str, at: float) -> bool:
        for start, end in self.windows.get(client_id, ()):
            if start <= at < end:
                return True
            if start > at:
                break
        return False

    def _compile(self) -> tuple:
        """Flatten the per-id window dict into parallel numpy arrays, in
        sorted-id order, so availability queries become one vectorized
        interval test instead of a Python loop per client.  Recompiled
        when ``windows`` is replaced or gains or loses clients; the check
        is O(1).  Traces are effectively immutable after construction, so
        an in-place edit of one client's windows is not tracked."""
        windows = self.windows
        compiled = self._compiled
        if compiled is not None:
            built_from, built_len = compiled[4]
            if built_from is windows and built_len == len(windows):
                return compiled
        ids = self.client_ids
        counts = np.array([len(self.windows[cid]) for cid in ids], dtype=np.int64)
        flat = [span for cid in ids for span in self.windows[cid]]
        if flat:
            arr = np.asarray(flat)
            starts, ends = arr[:, 0], arr[:, 1]
        else:
            starts = ends = np.empty(0)
        rows = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        self._compiled = (ids, starts, ends, rows, (windows, len(windows)))
        return self._compiled

    def mask_ids(self) -> list[str]:
        """The client ids in :meth:`available_mask`'s order.  The list is
        the compiled index's own, so a new object after each recompile:
        callers may key derived indexes on its identity (and must not
        mutate it)."""
        return self._compile()[0]

    def available_mask(self, at: float) -> "np.ndarray":
        """Boolean availability per client at ``at``, in sorted-id order —
        the vectorized core of :meth:`available`."""
        ids, starts, ends, rows, _ = self._compile()
        hit = (starts <= at) & (at < ends)
        mask = np.zeros(len(ids), dtype=bool)
        mask[rows[hit]] = True
        return mask

    def available(self, at: float) -> list[str]:
        """Client ids available at time ``at``, in sorted-id order (the
        deterministic sampling base): one vectorized test against the
        compiled index, matching :meth:`is_available` client by client."""
        ids = self._compile()[0]
        return [ids[i] for i in np.flatnonzero(self.available_mask(at)).tolist()]

    def availability_fraction(self, at: float) -> float:
        """Fraction of the population available at ``at`` (0 when empty)."""
        if not self.windows:
            return 0.0
        return int(self.available_mask(at).sum()) / len(self.windows)

    def sample(self, at: float, n: int, rng: np.random.Generator) -> list[str]:
        """Draw up to ``n`` distinct available clients at ``at`` (all of
        them when fewer are up) — availability-aware round participation."""
        pool = self.available(at)
        if len(pool) <= n:
            return pool
        idx = rng.choice(len(pool), size=n, replace=False)
        return [pool[int(i)] for i in sorted(idx)]


def availability_trace(
    n_clients: int,
    horizon: float,
    seed: int = 0,
    mean_session: float = 180.0,
    mean_gap: float = 60.0,
    day_night_amplitude: float = 0.0,
    period: float = 86400.0,
    prefix: str = "client",
) -> AvailabilityTrace:
    """Seeded per-client session/churn availability windows.

    Each client alternates offline gaps (Exp(``mean_gap``)) and online
    sessions (Exp(``mean_session``)).  ``day_night_amplitude`` modulates
    the *gap* length sinusoidally over ``period`` — gaps drawn during the
    "day" half stretch and during the "night" half shrink, reproducing the
    FedScale day-night participation swing (mobile clients charge — and
    participate — at night).
    """
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if horizon <= 0 or mean_session <= 0 or mean_gap <= 0:
        raise ConfigError("horizon and session/gap means must be positive")
    if not 0.0 <= day_night_amplitude < 1.0:
        raise ConfigError(
            f"day_night_amplitude must be in [0, 1), got {day_night_amplitude}"
        )
    if period <= 0:
        raise ConfigError("period must be positive")
    two_pi = 2.0 * math.pi
    windows: dict[str, tuple[tuple[float, float], ...]] = {}
    for i in range(n_clients):
        cid = f"{prefix}-{i:04d}"
        rng = make_rng(seed, f"avail:{cid}")
        spans: list[tuple[float, float]] = []
        # Random initial phase: about session/(session+gap) of the fleet
        # starts a trace already online.
        t = 0.0
        online = float(rng.uniform()) < mean_session / (mean_session + mean_gap)
        while t < horizon:
            if online:
                end = t + float(rng.exponential(mean_session))
                spans.append((t, min(end, horizon)))
                t = end
            else:
                gap = float(rng.exponential(mean_gap))
                if day_night_amplitude > 0.0:
                    gap *= 1.0 + day_night_amplitude * math.sin(two_pi * t / period)
                t += gap
            online = not online
        windows[cid] = tuple(spans)
    return AvailabilityTrace(horizon=horizon, windows=windows)


# ------------------------------------------------------------------- loaders
def load_trace(path: str, horizon: float | None = None) -> Trace:
    """Load an external round-arrival trace from CSV or JSONL.

    * ``.csv`` — columns ``at[,tenant]`` (header optional);
    * ``.jsonl`` / ``.ndjson`` — one ``{"at": ..., "tenant": ...}`` object
      per line (``tenant`` optional, default 0).

    Round ids are assigned per tenant in time order; ``horizon`` defaults
    to the last arrival time.
    """
    ext = os.path.splitext(path)[1].lower()
    events: list[TraceEvent] = []
    if ext == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                first = row[0].strip()
                try:
                    at = float(first)
                except ValueError:
                    if first.lower() in ("at", "time", "t"):
                        continue  # header row
                    raise ConfigError(f"{path}: unparseable trace row {row!r}") from None
                tenant = int(row[1]) if len(row) > 1 and row[1].strip() else 0
                events.append(TraceEvent(at=at, tenant=tenant))
    elif ext in (".jsonl", ".ndjson"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}: bad JSONL line: {exc}") from exc
                if "at" not in obj:
                    raise ConfigError(f"{path}: JSONL trace lines need an 'at' field")
                events.append(
                    TraceEvent(at=float(obj["at"]), tenant=int(obj.get("tenant", 0)))
                )
    else:
        raise ConfigError(f"unknown trace format {ext!r} (want .csv or .jsonl)")
    if not events:
        raise ConfigError(f"{path}: empty trace")
    hz = horizon if horizon is not None else max(ev.at for ev in events)
    return _finish(events, hz, f"file({os.path.basename(path)})")


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace back out (JSONL) — round-trips through
    :func:`load_trace`."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace.events:
            fh.write(json.dumps({"at": ev.at, "tenant": ev.tenant}) + "\n")
