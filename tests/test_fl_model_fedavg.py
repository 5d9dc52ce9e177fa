"""Model containers and FedAvg accumulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.fl.fedavg import FedAvgAccumulator, ModelUpdate, federated_average
from repro.fl.model import Model, model_spec


def model_of(*values):
    return Model({"w": np.array(values, dtype=np.float64)})


def test_model_spec_paper_sizes():
    assert model_spec("resnet18").nbytes == 44e6
    assert model_spec("resnet152").nbytes == 232e6
    assert model_spec("resnet152").param_count == 58_000_000
    with pytest.raises(ConfigError):
        model_spec("resnet9000")


def test_model_arithmetic():
    a = model_of(1.0, 2.0)
    b = model_of(3.0, 4.0)
    a.add_scaled_(b, 2.0)
    np.testing.assert_allclose(a["w"], [7.0, 10.0])
    np.testing.assert_allclose(a.scaled(0.5)["w"], [3.5, 5.0])
    np.testing.assert_allclose(b.delta_from(model_of(1.0, 1.0))["w"], [2.0, 3.0])


def test_model_distance_and_allclose():
    a, b = model_of(0.0, 0.0), model_of(3.0, 4.0)
    distance = np.sqrt(sum(np.sum(v**2) for _, v in b.delta_from(a).items()))
    assert distance == pytest.approx(5.0)
    assert a.allclose(a.copy())
    assert not a.allclose(b)


def test_model_incompatible_shapes_rejected():
    a = model_of(1.0)
    b = Model({"w": np.zeros((2, 2))})
    with pytest.raises(ConfigError):
        a.add_scaled_(b, 1.0)
    c = Model({"other": np.zeros(1)})
    with pytest.raises(ConfigError):
        a.add_scaled_(c, 1.0)


def test_model_flatten_deterministic_order():
    m = Model({"b": np.array([2.0]), "a": np.array([1.0])})
    np.testing.assert_allclose(m.flatten(), [1.0, 2.0])


def test_empty_model_rejected():
    with pytest.raises(ConfigError):
        Model({})


def test_fedavg_weighted_mean():
    updates = [
        ModelUpdate(model_of(1.0), weight=1.0),
        ModelUpdate(model_of(4.0), weight=3.0),
    ]
    result = federated_average(updates)
    # (1*1 + 4*3) / 4 = 3.25
    np.testing.assert_allclose(result.model["w"], [3.25])
    assert result.weight == pytest.approx(4.0)


def test_fedavg_matches_paper_formula():
    """f = sum(w_k * c_k) / T with T = sum(c_k) (§2.1)."""
    rng = np.random.default_rng(0)
    ws = [rng.standard_normal(6) for _ in range(5)]
    cs = [float(c) for c in rng.integers(1, 100, size=5)]
    updates = [ModelUpdate(Model({"w": w}), weight=c) for w, c in zip(ws, cs)]
    expected = sum(w * c for w, c in zip(ws, cs)) / sum(cs)
    np.testing.assert_allclose(federated_average(updates).model["w"], expected)


def test_eager_equals_lazy():
    rng = np.random.default_rng(1)
    updates = [
        ModelUpdate(Model({"w": rng.standard_normal(8)}), weight=float(i + 1))
        for i in range(7)
    ]
    lazy = federated_average(updates)
    eager = FedAvgAccumulator()
    for u in updates:
        eager.add(u)
    assert eager.result().model.allclose(lazy.model)


def test_hierarchical_composition_equals_flat():
    """Leaf->middle->top composition must equal one-shot FedAvg."""
    rng = np.random.default_rng(2)
    updates = [
        ModelUpdate(Model({"w": rng.standard_normal(4)}), weight=float(rng.integers(1, 20)))
        for _ in range(9)
    ]
    flat = federated_average(updates)
    leaves = [FedAvgAccumulator() for _ in range(3)]
    for i, u in enumerate(updates):
        leaves[i % 3].add(u)
    mid = FedAvgAccumulator()
    for leaf in leaves:
        mid.add(leaf.result())
    top = FedAvgAccumulator()
    top.add(mid.result())
    assert top.result().model.allclose(flat.model)
    assert top.result().weight == pytest.approx(flat.weight)


def test_accumulator_merge():
    rng = np.random.default_rng(3)
    updates = [ModelUpdate(Model({"w": rng.standard_normal(3)}), weight=2.0) for _ in range(4)]
    whole = FedAvgAccumulator()
    for u in updates:
        whole.add(u)
    a, b = FedAvgAccumulator(), FedAvgAccumulator()
    for u in updates[:2]:
        a.add(u)
    for u in updates[2:]:
        b.add(u)
    a.merge(b)
    assert a.result().model.allclose(whole.result().model)
    assert a.count == 4


def test_accumulator_reset_and_empty():
    acc = FedAvgAccumulator()
    assert acc.is_empty
    with pytest.raises(ConfigError):
        acc.result()
    acc.add(ModelUpdate(model_of(1.0), weight=1.0))
    acc.reset()
    assert acc.is_empty and acc.count == 0


def test_update_weight_validation():
    with pytest.raises(ConfigError):
        ModelUpdate(model_of(1.0), weight=0.0)


# ---- vectorized batch folding ---------------------------------------------------


def test_weighted_sum_matches_serial_fold(rng):
    models = [Model({"a": rng.standard_normal(16).astype(np.float32),
                     "b": rng.standard_normal((4, 3)).astype(np.float32)}) for _ in range(10)]
    weights = [float(w) for w in rng.uniform(0.5, 3.0, size=10)]
    batched = Model.weighted_sum(models, weights)
    serial = models[0].scaled(weights[0])
    for m, w in zip(models[1:], weights[1:]):
        serial.add_scaled_(m, w)
    assert batched.allclose(serial)


def test_weighted_sum_validates_inputs():
    m = model_of(1.0)
    with pytest.raises(ConfigError):
        Model.weighted_sum([], [])
    with pytest.raises(ConfigError):
        Model.weighted_sum([m], [1.0, 2.0])
    with pytest.raises(ConfigError):
        Model.weighted_sum([m, Model({"other": np.zeros(3)})], [1.0, 2.0])


def test_add_batch_equals_serial_below_and_above_threshold(rng):
    from repro.fl.fedavg import BATCH_FOLD_THRESHOLD

    for n in (BATCH_FOLD_THRESHOLD - 1, BATCH_FOLD_THRESHOLD + 4):
        updates = [
            ModelUpdate(
                Model({"p": rng.standard_normal(32).astype(np.float32)}),
                weight=float(rng.uniform(0.5, 4.0)),
            )
            for _ in range(n)
        ]
        serial = FedAvgAccumulator()
        for u in updates:
            serial.add(u)
        batched = FedAvgAccumulator()
        batched.add_batch(updates)
        assert batched.count == serial.count == n
        assert batched.total_weight == pytest.approx(serial.total_weight)
        assert batched.result().model.allclose(serial.result().model)


def test_add_batch_folds_into_existing_sum(rng):
    updates = [
        ModelUpdate(
            Model({"p": rng.standard_normal(8).astype(np.float32)}),
            weight=1.0 + i,
        )
        for i in range(12)
    ]
    acc = FedAvgAccumulator()
    acc.add(updates[0])
    acc.add_batch(updates[1:])
    assert acc.result().model.allclose(federated_average(updates).model)


def test_add_batch_empty_is_noop():
    acc = FedAvgAccumulator()
    acc.add_batch([])
    assert acc.is_empty
