"""Struct-of-arrays client population for 100k-client rounds.

:func:`repro.workloads.fedscale.make_population` builds one
:class:`~repro.fl.client.FLClient` object per client — fine at 2,800, but a
100k-client population costs hundreds of thousands of Python objects and a
per-object method call for every draw.  :class:`ClientPopulation` keeps the
same statistical population as parallel numpy arrays — speed factors,
FedAvg weights (sample counts), availability windows in CSR form, per-client
state and next-event time — so availability queries, selection, and timing
draws are single vectorized kernels.

Three contracts keep it honest:

* **generation parity** — :meth:`ClientPopulation.generate` consumes the
  same named RNG streams with the same formulas as ``make_population``, so
  speed factors and sample counts are byte-identical to the per-object
  path for the same ``(n, profile, seed)``;
* **draw parity** — :meth:`training_durations` / :meth:`hibernations`
  produce exactly the floats a loop of per-object
  ``FLClient.training_duration`` / ``FLClient.hibernation`` calls would,
  because a single ``rng.uniform(..., size=k)`` call consumes the PCG64
  stream identically to ``k`` sequential scalar draws (property-tested);
* **layer discipline** — nothing here is imported by the round engine; the
  population plugs in above the round engine's stages, via
  :meth:`~repro.fl.selector.Selector.select_population` and the replay
  loop's participant drawing, exactly where ``AvailabilityTrace`` +
  ``FLClient`` lists plug in today.

Availability windows are generated in one vectorized pass (batched
exponentials + a cumulative sum, rather than ``availability_trace``'s
per-client loop over per-client streams), which is what makes a 100k-client
horizon tractable; day-night gap modulation is inherently sequential and is
not supported here — use :func:`repro.traces.models.availability_trace`
when you need it.  Batched event coalescing on the engine side lives in the
``gateway-coalesced`` ingress stage (one walker process wakes each arrival
batch); :meth:`next_events` is the population-side counterpart — one call
yields every client's next churn instant, so a serving loop keeps a single
heap entry per *batch* of clients instead of one per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngRegistry, make_rng
from repro.fl.model import ModelSpec
from repro.workloads.fedscale import MOBILE_PROFILE, PopulationProfile

__all__ = ["ClientPopulation"]

#: online/offline markers for the ``state`` array
OFFLINE, ONLINE = 0, 1


@dataclass
class ClientPopulation:
    """A homogeneous client fleet as parallel arrays (index = client)."""

    spec: ModelSpec
    prefix: str
    #: relative compute speeds (lognormal, FedScale-style)
    speed_factors: np.ndarray
    #: per-client dataset sizes — the FedAvg weights
    num_samples: np.ndarray
    hibernate_max: float
    #: availability windows, CSR over all clients: client ``i`` owns
    #: ``win_start[win_offsets[i]:win_offsets[i+1]]`` (sorted, [start, end))
    win_start: np.ndarray = field(default_factory=lambda: np.empty(0))
    win_end: np.ndarray = field(default_factory=lambda: np.empty(0))
    win_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    horizon: float = 0.0
    #: optional per-client NIC capacity (bits/s); None = fabric default
    nic_bps: np.ndarray | None = None
    #: ONLINE/OFFLINE as of the last :meth:`advance` (uint8)
    state: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    #: next availability-boundary instant per client (inf = none left)
    next_event_at: np.ndarray = field(default_factory=lambda: np.empty(0))
    _row_index: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.size
        if len(self.num_samples) != n:
            raise ConfigError("speed_factors and num_samples lengths differ")
        if len(self.win_offsets) != n + 1:
            raise ConfigError(f"win_offsets must have {n + 1} entries")
        if len(self.win_start) != len(self.win_end):
            raise ConfigError("win_start and win_end lengths differ")
        if self.state.size == 0:
            self.state = np.zeros(n, dtype=np.uint8)
            self.next_event_at = np.full(n, np.inf)
            if self.total_windows:
                self.advance(0.0)

    # ------------------------------------------------------------- identity
    @property
    def size(self) -> int:
        return len(self.speed_factors)

    @property
    def total_windows(self) -> int:
        return len(self.win_start)

    def client_id(self, i: int) -> str:
        return f"{self.prefix}-{i:04d}"

    def ids(self, idx: np.ndarray | None = None) -> list[str]:
        rng = range(self.size) if idx is None else (int(i) for i in idx)
        return [self.client_id(i) for i in rng]

    def weights(self, idx: np.ndarray) -> np.ndarray:
        """FedAvg weights for the given client indices."""
        return self.num_samples[idx].astype(float)

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(
        cls,
        n_clients: int,
        spec: ModelSpec | None = None,
        profile: PopulationProfile = MOBILE_PROFILE,
        seed: int = 0,
        horizon: float = 0.0,
        mean_session: float = 180.0,
        mean_gap: float = 60.0,
    ) -> "ClientPopulation":
        """Build the FedScale-style population as arrays.

        Speeds and sample counts replicate ``make_population`` draw for
        draw (same named streams, same formulas), so the SoA and
        per-object populations are the *same* population.  Availability
        windows (only when ``horizon > 0``) come from a separate batched
        stream, ``"population:windows"`` — per-client Exp(gap)/Exp(session)
        alternation with the usual session/(session+gap) initial-online
        coin, drawn as ``(n, m)`` matrices and cumulatively summed.
        """
        if n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
        if spec is None:
            from repro.fl.model import model_spec

            spec = model_spec("resnet18")
        rngs = RngRegistry(seed)
        speeds = rngs.stream("speeds").lognormal(0.0, profile.speed_sigma, size=n_clients)
        raw = rngs.stream("samples").pareto(profile.samples_exponent, size=n_clients) + 1.0
        counts = np.maximum(10, raw / raw.mean() * profile.samples_mean).astype(int)
        pop = cls(
            spec=spec,
            prefix=profile.name,
            speed_factors=speeds,
            num_samples=counts.astype(np.int64),
            hibernate_max=profile.hibernate_max,
            win_offsets=np.zeros(n_clients + 1, dtype=np.int64),
        )
        if horizon > 0.0:
            pop._generate_windows(seed, horizon, mean_session, mean_gap)
            pop.advance(0.0)
        return pop

    def _generate_windows(
        self, seed: int, horizon: float, mean_session: float, mean_gap: float
    ) -> None:
        if mean_session <= 0 or mean_gap <= 0:
            raise ConfigError("session/gap means must be positive")
        n = self.size
        rng = make_rng(seed, "population:windows")
        online0 = rng.uniform(size=n) < mean_session / (mean_session + mean_gap)
        # Enough alternations that a client almost surely covers the horizon;
        # the stragglers get a scalar top-up below.
        m = int(horizon / (mean_session + mean_gap) * 3.0) + 8
        sessions = rng.exponential(mean_session, size=(n, m))
        gaps = rng.exponential(mean_gap, size=(n, m))
        dur = np.empty((n, 2 * m))
        dur[online0, 0::2] = sessions[online0]
        dur[online0, 1::2] = gaps[online0]
        dur[~online0, 0::2] = gaps[~online0]
        dur[~online0, 1::2] = sessions[~online0]
        b = np.concatenate([np.zeros((n, 1)), np.cumsum(dur, axis=1)], axis=1)
        starts = np.where(online0[:, None], b[:, 0 : 2 * m : 2], b[:, 1 : 2 * m : 2])
        ends = np.where(online0[:, None], b[:, 1 : 2 * m + 1 : 2], b[:, 2 : 2 * m + 2 : 2])
        # Rare rows whose 2m alternations end short of the horizon: continue
        # the alternation with scalar draws (state after 2m flips = initial).
        extra: dict[int, list[tuple[float, float]]] = {}
        for i in np.flatnonzero(b[:, -1] < horizon):
            t = float(b[i, -1])
            online = bool(online0[i])
            spans: list[tuple[float, float]] = []
            while t < horizon:
                if online:
                    end = t + float(rng.exponential(mean_session))
                    spans.append((t, min(end, horizon)))
                    t = end
                else:
                    t += float(rng.exponential(mean_gap))
                online = not online
            if spans:
                extra[int(i)] = spans
        valid = starts < horizon
        ends = np.minimum(ends, horizon)
        counts = valid.sum(axis=1) + np.array(
            [len(extra.get(i, ())) for i in range(n)], dtype=np.int64
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if extra:
            ws = np.empty(int(offsets[-1]))
            we = np.empty(int(offsets[-1]))
            for i in range(n):
                row = starts[i, valid[i]]
                lo, hi = offsets[i], offsets[i] + len(row)
                ws[lo:hi] = row
                we[lo:hi] = ends[i, valid[i]]
                for j, (s, e) in enumerate(extra.get(i, ())):
                    ws[hi + j] = s
                    we[hi + j] = e
        else:
            ws = starts[valid]
            we = ends[valid]
        self.win_start, self.win_end, self.win_offsets = ws, we, offsets
        self.horizon = horizon
        self._row_index = None

    # ------------------------------------------------------------- availability
    def _rows(self) -> np.ndarray:
        if self._row_index is None or len(self._row_index) != self.total_windows:
            self._row_index = np.repeat(
                np.arange(self.size, dtype=np.int64), np.diff(self.win_offsets)
            )
        return self._row_index

    def available_mask(self, at: float) -> np.ndarray:
        """Boolean mask over clients: inside an availability window at
        ``at``.  One vectorized pass over all windows — no per-client loop.
        A population without windows is always-on (server profile)."""
        if self.total_windows == 0:
            return np.ones(self.size, dtype=bool)
        hit = (self.win_start <= at) & (at < self.win_end)
        mask = np.zeros(self.size, dtype=bool)
        mask[self._rows()[hit]] = True
        return mask

    def next_events(self, at: float) -> np.ndarray:
        """Each client's next availability boundary strictly after ``at``
        (inf when none remain) — the batched-coalescing primitive: one call
        replaces a heap entry per client with one wake per churn batch."""
        if self.total_windows == 0:
            return np.full(self.size, np.inf)
        cand = np.where(
            self.win_start > at,
            self.win_start,
            np.where(self.win_end > at, self.win_end, np.inf),
        )
        out = np.full(self.size, np.inf)
        np.minimum.at(out, self._rows(), cand)
        return out

    def advance(self, at: float) -> None:
        """Refresh the ``state`` and ``next_event_at`` arrays to ``at``."""
        self.state = self.available_mask(at).astype(np.uint8)
        self.next_event_at = self.next_events(at)

    # ------------------------------------------------------------ timing draws
    def training_durations(self, rng: np.random.Generator, idx: np.ndarray) -> np.ndarray:
        """Batched ``FLClient.training_duration``: reference epoch time over
        client speed, ±20% jitter — one uniform draw per selected client,
        byte-identical to the scalar loop."""
        base = self.spec.local_train_seconds / self.speed_factors[idx]
        return base * rng.uniform(0.8, 1.2, size=len(idx))

    def hibernations(self, rng: np.random.Generator, idx: np.ndarray) -> np.ndarray:
        """Batched ``FLClient.hibernation``; always-on populations draw
        nothing (the scalar path consumes no stream either)."""
        if self.hibernate_max <= 0:
            return np.zeros(len(idx))
        return rng.uniform(0.0, self.hibernate_max, size=len(idx))
