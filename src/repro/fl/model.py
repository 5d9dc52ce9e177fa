"""Model parameter containers and the paper's model specs.

:class:`Model` is a named dict of NumPy arrays with the arithmetic the
aggregation path needs (weighted accumulate, scale, delta).  For the
cluster-scale experiments the *contents* of ResNet parameters don't matter —
only their wire size does — so :class:`ModelSpec` records the byte sizes the
paper uses (§4.1/§6.1: ResNet-18 ≈ 44 MB, ResNet-34 ≈ 83 MB, ResNet-152 ≈
232 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import MB, RESNET18_BYTES, RESNET34_BYTES, RESNET152_BYTES


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a model as the platform sees it."""

    name: str
    nbytes: float
    #: mean seconds for one client to train a local epoch on reference
    #: hardware (scaled by per-client speed factors)
    local_train_seconds: float

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ConfigError(f"model {self.name}: nbytes must be positive")
        if self.local_train_seconds < 0:
            raise ConfigError(f"model {self.name}: negative train time")

    @property
    def param_count(self) -> int:
        """float32 parameter count implied by the wire size."""
        return int(self.nbytes // 4)


_SPECS: dict[str, ModelSpec] = {
    # local_train_seconds calibrated in §6.2 terms: ResNet-18 clients are
    # compute-constrained mobile devices (8 per physical node); ResNet-152
    # clients are dedicated servers.
    "resnet18": ModelSpec("resnet18", RESNET18_BYTES, local_train_seconds=12.0),
    "resnet34": ModelSpec("resnet34", RESNET34_BYTES, local_train_seconds=35.0),
    "resnet152": ModelSpec("resnet152", RESNET152_BYTES, local_train_seconds=35.0),
    # small, actually-trainable model used by examples and small-scale runs
    "mlp-small": ModelSpec("mlp-small", 0.3 * MB, local_train_seconds=0.05),
}


def model_spec(name: str) -> ModelSpec:
    """Look up a model spec by name (``resnet18``/``resnet34``/``resnet152``
    /``mlp-small``)."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ConfigError(f"unknown model {name!r}; have {sorted(_SPECS)}") from None


class Model:
    """Named parameter tensors with aggregation arithmetic.

    Arrays are float32 by convention (the wire sizes above assume it).
    Operations return new models; in-place accumulation is explicit via
    :meth:`add_scaled_` for the hot aggregation path.
    """

    def __init__(self, params: Mapping[str, np.ndarray]) -> None:
        if not params:
            raise ConfigError("model must have at least one parameter tensor")
        self._params = {k: np.asarray(v) for k, v in params.items()}

    # -- container protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._params.items())

    def keys(self) -> list[str]:
        return list(self._params)

    def as_dict(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    @property
    def nbytes(self) -> int:
        return sum(int(v.nbytes) for v in self._params.values())

    # -- construction helpers ---------------------------------------------------
    def copy(self) -> "Model":
        return Model({k: v.copy() for k, v in self._params.items()})

    def zeros_like(self) -> "Model":
        return Model({k: np.zeros_like(v) for k, v in self._params.items()})

    @staticmethod
    def weighted_sum(models: "list[Model]", weights: "list[float] | np.ndarray") -> "Model":
        """``Σ w_i · m_i`` in one vectorized pass per tensor.

        The batched equivalent of folding each model in with
        :meth:`add_scaled_`; large aggregation fan-ins go through here so
        the inner loop runs in NumPy instead of Python (see
        ``FedAvgAccumulator.add_batch``).  Accumulation dtype follows each
        tensor's dtype, like the serial path.
        """
        if not models:
            raise ConfigError("weighted_sum needs at least one model")
        if len(models) != len(weights):
            raise ConfigError(
                f"weighted_sum: {len(models)} models but {len(weights)} weights"
            )
        first = models[0]
        for other in models[1:]:
            first._check_compatible(other)
        out: dict[str, np.ndarray] = {}
        w64 = np.asarray(weights, dtype=np.float64)
        for k, ref in first._params.items():
            stacked = np.stack([m._params[k] for m in models])
            w = w64.astype(ref.dtype, copy=False) if ref.dtype != np.float64 else w64
            out[k] = np.tensordot(w, stacked.reshape(len(models), -1), axes=(0, 0)).reshape(
                ref.shape
            )
        return Model(out)

    # -- arithmetic ---------------------------------------------------------------
    def _check_compatible(self, other: "Model") -> None:
        if self.keys() != other.keys():
            raise ConfigError(
                f"incompatible models: {self.keys()} vs {other.keys()}"
            )
        for k in self._params:
            if self._params[k].shape != other._params[k].shape:
                raise ConfigError(f"shape mismatch on {k!r}")

    def add_scaled_(self, other: "Model", scale: float) -> "Model":
        """In-place ``self += scale * other`` (the FedAvg accumulate)."""
        self._check_compatible(other)
        for k in self._params:
            self._params[k] += scale * other._params[k]
        return self

    def scaled(self, scale: float) -> "Model":
        return Model({k: v * scale for k, v in self._params.items()})

    def delta_from(self, reference: "Model") -> "Model":
        """``self − reference`` (a model *update* relative to the global)."""
        self._check_compatible(reference)
        return Model({k: self._params[k] - reference._params[k] for k in self._params})

    def allclose(self, other: "Model", rtol: float = 1e-5, atol: float = 1e-7) -> bool:
        self._check_compatible(other)
        return all(
            np.allclose(self._params[k], other._params[k], rtol=rtol, atol=atol)
            for k in self._params
        )

    def flatten(self) -> np.ndarray:
        """All parameters as one vector (deterministic key order)."""
        return np.concatenate([self._params[k].ravel() for k in sorted(self._params)])

    def __repr__(self) -> str:
        return f"Model({len(self)} tensors, {self.nbytes} bytes)"
