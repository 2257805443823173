"""Deterministic discrete-event simulator standing in for a real testbed.

See DESIGN.md section 4: the paper reports no measurements and assumes
1992-era multi-site networks; this package provides a reproducible
simulation substrate (engine, network, transport, failures) on which
the whole CSCW/ODP stack runs.  A :class:`World`'s ``metrics`` is an
instance of :class:`repro.obs.MetricsRegistry`, the library's one
registry class.
"""

from repro.sim.engine import Engine, EventHandle, PeriodicTask
from repro.sim.failures import FailureInjector, PlannedOutage
from repro.sim.network import LAN_LINK, WAN_LINK, LinkSpec, Network, Node, Packet
from repro.sim.rng import SeededRng
from repro.sim.transport import ReliableChannel, RequestReply, connect_pair
from repro.sim.world import World

__all__ = [
    "Engine",
    "EventHandle",
    "PeriodicTask",
    "FailureInjector",
    "PlannedOutage",
    "LAN_LINK",
    "WAN_LINK",
    "LinkSpec",
    "Network",
    "Node",
    "Packet",
    "SeededRng",
    "ReliableChannel",
    "RequestReply",
    "connect_pair",
    "World",
]
