"""The EWMA queue estimator."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.metrics import EwmaEstimator


def test_ewma_recurrence_matches_paper():
    # Q_t = alpha * Q_{t-1} + (1 - alpha) * Q_t with alpha = 0.7
    est = EwmaEstimator(0.7)
    est.update(10.0)
    assert est.value == pytest.approx(10.0)  # first observation seeds
    est.update(20.0)
    assert est.value == pytest.approx(0.7 * 10 + 0.3 * 20)


def test_ewma_damps_spikes():
    est = EwmaEstimator(0.7)
    est.update(10.0)
    est.update(100.0)  # spike
    assert est.value < 40.0


def test_ewma_converges_to_constant_input():
    est = EwmaEstimator(0.7)
    for _ in range(60):
        est.update(42.0)
    assert est.value == pytest.approx(42.0, rel=1e-6)


def test_ewma_validation():
    with pytest.raises(ConfigError):
        EwmaEstimator(1.0)
    with pytest.raises(ConfigError):
        EwmaEstimator(-0.1)
    with pytest.raises(ConfigError):
        EwmaEstimator(0.5).update(-1.0)


def test_ewma_reset():
    est = EwmaEstimator()
    est.update(5.0)
    est.reset()
    assert not est.initialized
    assert est.value == 0.0
