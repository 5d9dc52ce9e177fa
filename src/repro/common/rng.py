"""Deterministic random-number management.

Every stochastic component in the reproduction (client availability, training
durations, data partitioning, ...) draws from a named stream derived from a
single experiment seed, so that

* a whole experiment is reproducible from one integer, and
* adding a new consumer of randomness does not perturb existing streams.
"""

from __future__ import annotations

import operator

import numpy as np

#: ``SeedSequence``'s entropy pool size in 32-bit words (numpy's default)
_POOL_WORDS = 4


def make_rng(seed: int, stream: str = "") -> np.random.Generator:
    """Create an independent generator for ``(seed, stream)``.

    The stream name is folded into the seed sequence so distinct components
    get decorrelated streams even with the same experiment seed.

    The generator equals the one seeded by
    ``SeedSequence(seed, spawn_key=tuple(stream.encode()))``: this builds
    the entropy array that construction assembles (the seed's
    little-endian 32-bit words, zero-padded to the pool size, then one
    word per UTF-8 byte of ``stream``) and hands it over whole, which
    skips numpy's per-element coercion of the key.  The pool, hence every
    draw, is identical.
    """
    if not stream:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n = operator.index(seed)
    if n < 0:
        raise ValueError(f"expected non-negative integer seed, got {n}")
    words = []
    while True:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        if not n:
            break
    words.extend([0] * (_POOL_WORDS - len(words)))
    words.extend(stream.encode("utf-8"))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class RngRegistry:
    """Factory handing out named, decorrelated RNG streams for one seed.

    Components ask for streams by name (``registry.stream("clients")``); the
    registry memoizes them so repeated lookups share state within a run.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = make_rng(self._seed, name)
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. per-trial) with a distinct seed."""
        child_seed = int(make_rng(self._seed, f"fork:{name}").integers(0, 2**63 - 1))
        return RngRegistry(child_seed)
