"""Seeded randomness for reproducible simulations.

All stochastic behaviour in the library (network latency jitter, message
loss, failure injection, workload generation) draws from a
:class:`SeededRng` so that a run is fully determined by its seed.  The class
wraps :class:`random.Random` and adds the distributions the simulator needs.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A reproducible random source.

    Child generators created with :meth:`fork` are independent streams
    derived deterministically from the parent, so adding a new consumer of
    randomness does not perturb existing streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        self._forks = 0

    def fork(self, label: str = "") -> "SeededRng":
        """Return an independent child stream.

        The child's seed mixes the parent seed, a fork counter, and the
        label, so distinct labels give distinct streams.  The mix uses
        ``zlib.crc32``, not the builtin ``hash()``: string hashing is
        randomized per process (PYTHONHASHSEED), which would make forked
        streams — and every "seeded" run using them — irreproducible.
        """
        self._forks += 1
        material = f"{self._seed}:{self._forks}:{label}".encode()
        child_seed = zlib.crc32(material) & 0x7FFFFFFF
        return SeededRng(child_seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be > 0")
        return self._random.expovariate(1.0 / mean)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one item from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Pick k distinct items from the sequence."""
        return self._random.sample(list(items), k)

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a new list with the items shuffled."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy
