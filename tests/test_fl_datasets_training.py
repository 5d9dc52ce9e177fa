"""Synthetic federated datasets and the NumPy training stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.datasets import make_federated_dataset
from repro.fl.model import Model
from repro.fl.training import MLP, LocalTrainer, TrainingConfig


def test_dataset_structure():
    ds = make_federated_dataset(n_clients=12, num_classes=4, dim=8, seed=1)
    assert ds.num_clients == 12
    assert ds.num_classes == 4
    shard = ds.shard("client0003")
    assert shard.features.shape[1] == 8
    assert shard.features.dtype == np.float32
    assert shard.num_samples >= 8
    assert ds.test_features.shape == (1000, 8)


def test_dataset_deterministic_by_seed():
    a = make_federated_dataset(n_clients=5, seed=7)
    b = make_federated_dataset(n_clients=5, seed=7)
    np.testing.assert_array_equal(a.test_features, b.test_features)
    np.testing.assert_array_equal(
        a.shard("client0000").features, b.shard("client0000").features
    )
    c = make_federated_dataset(n_clients=5, seed=8)
    assert not np.array_equal(a.test_features, c.test_features)


def test_dataset_is_non_iid():
    ds = make_federated_dataset(n_clients=30, num_classes=10, dirichlet_alpha=0.2, seed=2)
    # With strong label skew, most clients should miss several classes.
    missing = 0
    for shard in ds.shards.values():
        if len(np.unique(shard.labels)) < ds.num_classes:
            missing += 1
    assert missing > 15


def test_dataset_sample_counts_heavy_tailed():
    ds = make_federated_dataset(n_clients=200, mean_samples=60, seed=3)
    counts = np.array(list(ds.sample_counts().values()))
    assert counts.max() > 3 * np.median(counts)  # a real tail
    assert counts.min() >= 8
    assert ds.total_samples() == counts.sum()


def test_dataset_validation():
    with pytest.raises(ConfigError):
        make_federated_dataset(n_clients=0)
    with pytest.raises(ConfigError):
        make_federated_dataset(num_classes=1)
    with pytest.raises(ConfigError):
        make_federated_dataset(mean_samples=5, min_samples=10)
    with pytest.raises(ConfigError):
        ds = make_federated_dataset(n_clients=3)
        ds.shard("ghost")


def test_mlp_shapes_and_init():
    mlp = MLP(dim=8, hidden=16, num_classes=3)
    params = mlp.init_params(make_rng(0, "init"))
    assert params["w1"].shape == (8, 16)
    assert params["w2"].shape == (16, 3)
    x = np.zeros((5, 8), dtype=np.float32)
    assert mlp.logits(params, x).shape == (5, 3)
    with pytest.raises(ConfigError):
        MLP(dim=0, hidden=1, num_classes=2)


def test_gradients_match_finite_differences():
    mlp = MLP(dim=4, hidden=6, num_classes=3)
    rng = make_rng(1, "grad")
    params = mlp.init_params(rng)
    x = rng.standard_normal((10, 4)).astype(np.float64)
    y = rng.integers(0, 3, size=10).astype(np.int64)
    # float64 copy for numeric accuracy
    params = Model({k: v.astype(np.float64) for k, v in params.items()})
    _, grads = mlp.loss_and_grads(params, x, y)
    eps = 1e-6
    for name in ("w1", "b2"):
        arr = params[name]
        flat_idx = 1 if arr.size > 1 else 0
        idx = np.unravel_index(flat_idx, arr.shape)
        arr[idx] += eps
        lp, _ = mlp.loss_and_grads(params, x, y)
        arr[idx] -= 2 * eps
        lm, _ = mlp.loss_and_grads(params, x, y)
        arr[idx] += eps
        numeric = (lp - lm) / (2 * eps)
        assert grads[name][idx] == pytest.approx(numeric, abs=1e-4)


def test_local_training_reduces_loss():
    ds = make_federated_dataset(n_clients=4, num_classes=3, dim=8, mean_samples=120, seed=4)
    mlp = MLP(dim=8, hidden=16, num_classes=3)
    rng = make_rng(2, "train")
    params = mlp.init_params(rng)
    shard = ds.shard("client0000")
    loss0, _ = mlp.loss_and_grads(params, shard.features, shard.labels)
    trainer = LocalTrainer(mlp, TrainingConfig(epochs=5, learning_rate=0.1))
    trained, _ = trainer.train(params, shard, rng)
    loss1, _ = mlp.loss_and_grads(trained, shard.features, shard.labels)
    assert loss1 < loss0 * 0.8


def test_fedprox_keeps_params_closer_to_global():
    ds = make_federated_dataset(n_clients=2, num_classes=3, dim=8, mean_samples=150, seed=5)
    mlp = MLP(dim=8, hidden=16, num_classes=3)
    rng1, rng2 = make_rng(3, "a"), make_rng(3, "a")
    params = mlp.init_params(make_rng(3, "init"))
    shard = ds.shard("client0000")
    plain = LocalTrainer(mlp, TrainingConfig(epochs=5, learning_rate=0.1))
    prox = LocalTrainer(mlp, TrainingConfig(epochs=5, learning_rate=0.1, fedprox_mu=1.0))
    t_plain, _ = plain.train(params, shard, rng1)
    t_prox, _ = prox.train(params, shard, rng2)

    def distance(model):
        return np.sqrt(sum(np.sum(v**2) for _, v in model.delta_from(params).items()))

    assert distance(t_prox) < distance(t_plain)


def test_training_config_paper_defaults():
    cfg = TrainingConfig()
    assert cfg.batch_size == 32 and cfg.learning_rate == 0.01  # §6.2
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=0.0)
