"""Logical clocks for ordering events in the simulated distributed system.

The CSCW environment integrates synchronous and asynchronous cooperation
("transparency of time", paper section 4).  To reason about causality across
both modes we provide classic Lamport scalar clocks and vector clocks.  The
simulator itself keeps *simulated* physical time (a float, seconds); these
logical clocks complement it for causality tracking in replicated state
(e.g. the shared editor and conferencing applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Ordering(Enum):
    """Causal relation between two vector timestamps."""

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


class LamportClock:
    """A Lamport scalar clock.

    ``tick()`` advances local time, ``observe(remote)`` merges a received
    timestamp.  Timestamps are ints; ties are broken by the owner id so that
    ``stamp()`` yields a total order usable as a sort key.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._time = 0

    def tick(self) -> int:
        """Advance for a local event; return the new time."""
        self._time += 1
        return self._time

    def observe(self, remote_time: int) -> int:
        """Merge a timestamp received from another process, then tick."""
        if remote_time < 0:
            raise ValueError("remote_time must be >= 0")
        self._time = max(self._time, remote_time)
        return self.tick()

    def stamp(self) -> tuple[int, str]:
        """Tick and return a totally-ordered (time, owner) stamp."""
        return (self.tick(), self.owner)


@dataclass(frozen=True)
class VectorTimestamp:
    """An immutable vector timestamp: mapping of process id -> count."""

    counts: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(mapping: dict[str, int]) -> "VectorTimestamp":
        """Build a timestamp from a dict, dropping zero entries."""
        items = tuple(sorted((k, v) for k, v in mapping.items() if v > 0))
        return VectorTimestamp(items)

    def as_dict(self) -> dict[str, int]:
        """Return the timestamp as a plain dict."""
        return dict(self.counts)

    def get(self, process: str) -> int:
        """Return this process's component (0 when absent)."""
        return dict(self.counts).get(process, 0)

    def compare(self, other: "VectorTimestamp") -> Ordering:
        """Return the causal relation of ``self`` to ``other``."""
        mine = self.as_dict()
        theirs = other.as_dict()
        keys = set(mine) | set(theirs)
        less = any(mine.get(k, 0) < theirs.get(k, 0) for k in keys)
        greater = any(mine.get(k, 0) > theirs.get(k, 0) for k in keys)
        if less and greater:
            return Ordering.CONCURRENT
        if less:
            return Ordering.BEFORE
        if greater:
            return Ordering.AFTER
        return Ordering.EQUAL

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Return the component-wise maximum of the two timestamps."""
        mine = self.as_dict()
        for key, value in other.counts:
            mine[key] = max(mine.get(key, 0), value)
        return VectorTimestamp.of(mine)

    def dominates(self, other: "VectorTimestamp") -> bool:
        """True when ``self`` is causally >= ``other``."""
        return self.compare(other) in (Ordering.AFTER, Ordering.EQUAL)


@dataclass
class VectorClock:
    """A mutable vector clock owned by one process."""

    owner: str
    _counts: dict[str, int] = field(default_factory=dict)

    def tick(self) -> VectorTimestamp:
        """Advance the owner's component and return the new timestamp."""
        self._counts[self.owner] = self._counts.get(self.owner, 0) + 1
        return self.snapshot()

    def observe(self, remote: VectorTimestamp) -> VectorTimestamp:
        """Merge a received timestamp, then tick."""
        for key, value in remote.counts:
            self._counts[key] = max(self._counts.get(key, 0), value)
        return self.tick()

    def snapshot(self) -> VectorTimestamp:
        """Return the current timestamp without advancing."""
        return VectorTimestamp.of(self._counts)
