"""A fixed unit of reference work, timed beside the program to track host speed.

The benchmark runs on a virtual machine that shares its cores with other
machines.  Their load changes this machine's speed by up to 2x, in
episodes that last from milliseconds to more than half an hour, so two
runs of the same code can read far apart on wall time alone.  The
harness therefore times this unit every few milliseconds while it times
the program, and reports each timing at reference speed: scaled by
``REFERENCE_S`` over the unit's time measured around it.  A program that
does more work still takes longer against the same reference; a host
that slows both cancels out.

The unit is a few canonical JSON encodings of a small document (string
work in C, as in the program's document sizing) and a short walk through
a shuffled list, which the program's own work evicts from the core's
private caches between probes.  The mix was chosen by measurement: JSON
encoding alone slows a little more than the program when the host slows,
the list walk much less.
"""

from __future__ import annotations

import json
import random
import time

#: the unit's duration on a quiet host of the machine the README's numbers
#: come from (2-core Xeon VM, Python 3.11); it only sets the scale
REFERENCE_S = 0.07e-3
#: canonical encodings of the reference document per unit
ENCODINGS = 8
#: steps of the list walk per unit, through a list of ``RING`` slots
STEPS = 60
RING = 1 << 12

_DOCUMENT = {
    "title": "reference",
    "paragraphs": ["agenda minutes review draft budget offer schedule " * 3] * 4,
    "fields": {"ref": "r1", "slots": [1, 2, 3], "author": "reference"},
}


class Reference:
    """The reference unit; building one lays out its list in memory."""

    def __init__(self) -> None:
        order = list(range(RING))
        random.Random(RING).shuffle(order)
        ring = [0] * RING
        for here, there in zip(order, order[1:] + order[:1]):
            ring[here] = there
        self._ring = ring

    def time(self) -> float:
        """Run the unit once; return its wall time in seconds."""
        dumps, document, ring = json.dumps, _DOCUMENT, self._ring
        start = time.perf_counter()
        for _ in range(ENCODINGS):
            dumps(document, sort_keys=True, separators=(",", ":"))
        slot = 0
        for _ in range(STEPS):
            slot = ring[slot]
        return time.perf_counter() - start


def scale(reference_s: float) -> float:
    """The factor that puts a time measured beside a unit that took
    *reference_s* at reference speed."""
    return REFERENCE_S / reference_s
