"""FL clients: local training plus availability behaviour (§6.2).

Two client populations appear in the paper's workloads:

* **mobile** (ResNet-18 setup): compute-constrained devices that hibernate
  for a random interval in [0, 60] s between availability windows, creating
  the fluctuating arrival rate of Fig. 10(a);
* **server** (ResNet-152 setup): dedicated, always-on machines producing the
  stable arrivals of Fig. 10(d).

A client is *logical*: its training may be real (small models — the trainer
actually runs SGD on its shard) or *timed* (ResNet-scale models — only the
training duration and the update's wire size matter to the platform).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.fl.datasets import ClientShard
from repro.fl.fedavg import ModelUpdate
from repro.fl.model import Model, ModelSpec
from repro.fl.training import LocalTrainer


@dataclass(frozen=True)
class ClientConfig:
    """Behavioural parameters for one client."""

    client_id: str
    #: relative compute speed (1.0 = reference hardware; FedScale-style
    #: heterogeneity draws these from a lognormal)
    speed_factor: float = 1.0
    #: mobile clients hibernate U[0, hibernate_max] s between rounds (§6.2);
    #: 0 means always-on (server clients)
    hibernate_max: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ConfigError(f"{self.client_id}: speed_factor must be positive")
        if self.hibernate_max < 0:
            raise ConfigError(f"{self.client_id}: negative hibernate_max")


class FLClient:
    """One participant: data shard + behaviour + (optionally real) training."""

    def __init__(
        self,
        config: ClientConfig,
        spec: ModelSpec,
        shard: ClientShard | None = None,
        trainer: LocalTrainer | None = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.shard = shard
        self.trainer = trainer
        self.rounds_participated = 0

    @property
    def client_id(self) -> str:
        return self.config.client_id

    @property
    def num_samples(self) -> int:
        """Sample count used as the FedAvg weight; timed clients without a
        shard report a nominal weight of 1."""
        return self.shard.num_samples if self.shard is not None else 1

    # -- timing model (drives the simulation platforms) ----------------------
    def training_duration(self, rng: np.random.Generator) -> float:
        """Seconds of local training for one round on this client: the model
        spec's reference epoch time, scaled by client speed, with ±20%
        run-to-run jitter."""
        base = self.spec.local_train_seconds / self.config.speed_factor
        return float(base * rng.uniform(0.8, 1.2))

    def hibernation(self, rng: np.random.Generator) -> float:
        """Seconds of unavailability before this client starts training."""
        if self.config.hibernate_max <= 0:
            return 0.0
        return float(rng.uniform(0.0, self.config.hibernate_max))

    # -- real training (small models) -------------------------------------------
    def train(self, global_model: Model, rng: np.random.Generator) -> ModelUpdate:
        """Run actual local SGD on the shard; returns the model update."""
        if self.shard is None or self.trainer is None:
            raise ConfigError(
                f"{self.client_id}: real training requires a shard and trainer"
            )
        params, _ = self.trainer.train(global_model, self.shard, rng)
        self.rounds_participated += 1
        return ModelUpdate(model=params, weight=float(self.shard.num_samples), producer=self.client_id)
