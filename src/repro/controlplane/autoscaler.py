"""The EWMA queue estimator behind LIFL's hierarchy-aware autoscaling (§5.2).

LIFL periodically re-plans the hierarchy on each node from the smoothed
queue estimate ``Q_i,t = k_i,t × E_i,t``, smoothed by an EWMA with
``α = 0.7`` ("based on it yielding the best results in our experiments") to
avoid over-allocating on short-term spikes.  The §6.1 overhead measurements
(:mod:`repro.experiments.overhead`) time this estimator.
"""

from __future__ import annotations

from repro.common.errors import ConfigError


class EwmaEstimator:
    """Exponentially weighted moving average over queue estimates.

    The paper's recurrence (§5.2): ``Q̄_t = α × Q̄_{t−1} + (1 − α) × Q_t``,
    with α = 0.7 — heavier weight on history, damping spikes.
    """

    def __init__(self, alpha: float = 0.7) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"EWMA alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self._value: float | None = None

    @property
    def value(self) -> float:
        """Current smoothed estimate (0 before any observation)."""
        return 0.0 if self._value is None else self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def update(self, observation: float) -> float:
        """Fold in one observation; returns the new smoothed value."""
        if observation < 0:
            raise ConfigError(f"negative queue observation: {observation}")
        if self._value is None:
            self._value = float(observation)
        else:
            self._value = self.alpha * self._value + (1.0 - self.alpha) * observation
        return self._value

    def reset(self) -> None:
        self._value = None
