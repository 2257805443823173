"""A deterministic consistent-hash ring for shard placement.

Keys (DIT subtree boundaries, organisation ids) are mapped onto shards by
position on a hash circle.  Virtual nodes (``replicas`` points per shard)
smooth the distribution; adding or removing one shard moves only the keys
in the arcs it owned — the classic consistent-hashing property, which is
what lets a deployment grow its DSA fleet without re-homing every org.

Hashing uses :func:`zlib.crc32`, not builtin ``hash()``: string hashing is
randomized per process (PYTHONHASHSEED), and shard placement must be
identical across runs and processes for seeded benchmarks and shadowing
peers to agree (same reasoning as ``SeededRng.fork``).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort


def stable_hash(key: str) -> int:
    """A process-independent 32-bit hash of *key*.

    >>> stable_hash("o=upc,c=es") == stable_hash("o=upc,c=es")
    True
    """
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ConsistentHashRing:
    """Maps string keys onto named shards, deterministically.

    >>> ring = ConsistentHashRing(["a", "b"], replicas=8)
    >>> ring.shard_for("some-key") in {"a", "b"}
    True
    """

    def __init__(self, shards: "list[str] | tuple[str, ...]" = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        #: sorted ring points: (hash, shard); ties break on shard name
        self._points: list[tuple[int, str]] = []
        self._shards: set[str] = set()
        #: the one placement memo, key -> shard; every add/remove empties it
        self._placed: dict[str, str] = {}
        for shard in shards:
            self.add_shard(shard)

    def add_shard(self, shard: str) -> None:
        """Place *shard*'s virtual nodes on the ring."""
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for replica in range(self.replicas):
            insort(self._points, (stable_hash(f"{shard}#{replica}"), shard))
        self._placed.clear()

    def remove_shard(self, shard: str) -> None:
        """Take *shard* off the ring (its arcs fall to the successors)."""
        if shard not in self._shards:
            raise ValueError(f"shard {shard!r} not on the ring")
        self._shards.discard(shard)
        self._points = [point for point in self._points if point[1] != shard]
        self._placed.clear()

    def shards(self) -> list[str]:
        """All shard names, sorted."""
        return sorted(self._shards)

    def shard_for(self, key: str) -> str:
        """The shard owning *key*: first ring point at or after its hash.

        Memoised per key until the ring changes, so a warm placement is
        one dict read, not a crc32 and a bisect.
        """
        shard = self._placed.get(key)
        if shard is None:
            if not self._points:
                raise ValueError("ring has no shards")
            index = bisect_left(self._points, (stable_hash(key), ""))
            if index == len(self._points):
                index = 0  # wrap past the top of the circle
            shard = self._placed[key] = self._points[index][1]
        return shard

    def distribution(self, keys: "list[str]") -> dict[str, int]:
        """How many of *keys* each shard owns (shards with zero included)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
