"""Windowed aggregation: a ring-of-slots view over sim-time.

Cumulative instruments (:mod:`repro.obs.metrics`) never age: a counter
only grows, a histogram keeps every bucket increment forever.  That is
the right export surface, but consumers that ask *"what happened over
the last W seconds?"* — the SLO engine and ``HealthMonitor.trend`` —
need a view that forgets.

:class:`Window` holds a fixed ring of ``slots`` cells, each covering
``window_s / slots`` seconds of sim-time and holding a vector of sums.
Cells older than the window are evicted as the ring advances, so memory
is O(slots) — independent of event rate and run length — and a read is
an element-wise sum over at most ``slots`` cells.

Two feeds, one per caller:

* ``push(vector)`` advances the ring by exactly one slot.  The SLO
  sampler ticks once per period and pushes that period's deltas; the
  feed is immune to floating-point drift in the tick timestamps.
* ``add(now, vector)`` lands in the cell for its timestamp.  Health
  probes report at arbitrary instants; readers call ``advance_to(now)``
  so staleness is evicted at read time.

>>> window = Window(window_s=4.0, slots=4)
>>> for delta in (5, 3, 2, 7): window.push((delta, 1))
>>> window.sums(2)
[17, 4]
>>> window.push((1, 1))          # ring is full: the 5 falls out
>>> window.sums(2), window.cells
([13, 4], 4)
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


class Window:
    """A ring of ``slots`` cells, each a vector of sums.

    ``_ring`` holds ``[slot_index, vector]`` pairs, oldest first; the
    deque's ``maxlen`` keeps at most ``slots`` live cells whatever the
    feed pattern.

    >>> window = Window(window_s=2.0, slots=2)
    >>> window.add(0.3, (4,)); window.add(1.2, (6,))
    >>> window.sums(1)
    [10]
    >>> window.add(2.7, (1,))      # the cell covering [0, 1) ages out
    >>> window.sums(1)
    [7]
    """

    __slots__ = ("slots", "width", "_ring", "_head")

    def __init__(self, window_s: float, slots: int) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self.width = float(window_s) / slots
        self._ring: deque[list] = deque(maxlen=slots)
        self._head = -1

    def push(self, vector: Sequence[float]) -> None:
        """Advance exactly one slot and store *vector* in it."""
        self._head += 1
        self._ring.append([self._head, list(vector)])

    def add(self, now: float, vector: Sequence[float]) -> None:
        """Add *vector* into the cell covering sim-time *now*.

        A timestamp older than the newest cell (an in-flight report
        landing after a newer one) folds into that newest cell rather
        than resurrecting an evicted slot.
        """
        self.advance_to(now)
        index = int(now / self.width)
        ring = self._ring
        if ring and ring[-1][0] >= index:
            cell = ring[-1][1]
            for i, value in enumerate(vector):
                cell[i] += value
        else:
            ring.append([index, list(vector)])

    def advance_to(self, now: float) -> None:
        """Evict every cell that is stale as of sim-time *now*."""
        index = int(now / self.width)
        if index > self._head:
            self._head = index
            floor = index - self.slots
            ring = self._ring
            while ring and ring[0][0] <= floor:
                ring.popleft()

    def sums(self, size: int) -> list:
        """Element-wise sum of the live cells, as a vector of *size*."""
        merged = [0] * size
        for _, vector in self._ring:
            for i, value in enumerate(vector):
                merged[i] += value
        return merged

    @property
    def cells(self) -> int:
        """Live cell count — the whole memory footprint of the window."""
        return len(self._ring)
