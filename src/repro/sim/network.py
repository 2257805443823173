"""Simulated network: nodes, links, latency models, loss and partitions.

The network charges each packet a delay of ``propagation + size/bandwidth``
(plus optional jitter), drops packets with a per-link loss probability, and
refuses delivery across partition boundaries or to crashed nodes.  All
randomness comes from the network's seeded RNG stream, so runs replay
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import SeededRng
from repro.util.errors import ConfigurationError, NetworkError

PacketHandler = Callable[["Packet"], None]


@dataclass(frozen=True)
class LinkSpec:
    """Characteristics of a (directed) link between two nodes.

    latency_s
        One-way propagation delay in seconds.
    bandwidth_bps
        Bytes per second used to charge serialization delay.
    loss
        Probability in [0, 1] that a packet silently disappears.
    jitter_s
        Uniform jitter added to latency, in [0, jitter_s].
    """

    latency_s: float = 0.01
    bandwidth_bps: float = 1_000_000.0
    loss: float = 0.0
    jitter_s: float = 0.0

    def transmission_delay(self, size_bytes: int, rng: SeededRng) -> float:
        """Total delay for a packet of *size_bytes* over this link."""
        delay = self.latency_s + size_bytes / self.bandwidth_bps
        if self.jitter_s > 0:
            delay += rng.uniform(0.0, self.jitter_s)
        return delay


#: A link spec that models a co-located (same room / same LAN) connection.
LAN_LINK = LinkSpec(latency_s=0.0005, bandwidth_bps=10_000_000.0)

#: A link spec modelling a 1992-era wide-area connection between sites.
WAN_LINK = LinkSpec(latency_s=0.08, bandwidth_bps=64_000.0, jitter_s=0.02)

#: every fate of a sent packet: the ``outcome`` label values of the
#: ``net.packets`` counter family (one of them per ``net.sent``)
PACKET_OUTCOMES = (
    "delivered", "source_down", "loss", "partition", "destination_down", "no_handler",
)


@dataclass(slots=True)
class Packet:
    """One datagram moving through the simulated network."""

    source: str
    destination: str
    port: str
    payload: Any
    size_bytes: int
    sent_at: float = 0.0
    delivered_at: float = 0.0


class Node:
    """A simulated host: named, crashable, with per-port packet handlers."""

    def __init__(self, name: str, site: str = "default") -> None:
        if not name:
            raise ConfigurationError("node name must be non-empty")
        self.name = name
        self.site = site
        self._up = True
        self._handlers: dict[str, PacketHandler] = {}
        self._received = 0

    @property
    def is_up(self) -> bool:
        """True while the node has not crashed."""
        return self._up

    @property
    def received_count(self) -> int:
        """Packets successfully delivered to this node."""
        return self._received

    def crash(self) -> None:
        """Take the node down; packets to/from it are dropped."""
        self._up = False

    def recover(self) -> None:
        """Bring the node back up (handlers survive the crash)."""
        self._up = True

    def bind(self, port: str, handler: PacketHandler) -> None:
        """Register *handler* for packets addressed to *port*."""
        if port in self._handlers:
            raise ConfigurationError(f"port {port!r} already bound on {self.name}")
        self._handlers[port] = handler

    def unbind(self, port: str) -> None:
        """Remove the handler for *port* if present."""
        self._handlers.pop(port, None)

    def bound_ports(self) -> list[str]:
        """Ports with a registered handler, sorted."""
        return sorted(self._handlers)

    def deliver(self, packet: Packet) -> bool:
        """Dispatch a packet to its port handler; False when unbound/down."""
        if not self._up:
            return False
        handler = self._handlers.get(packet.port)
        if handler is None:
            return False
        self._received += 1
        handler(packet)
        return True


class Network:
    """The simulated internetwork connecting all nodes.

    Nodes at the same *site* default to :data:`LAN_LINK`; nodes at different
    sites default to :data:`WAN_LINK`.  Specific node pairs can be overridden
    with :meth:`set_link`.  Partitions are modelled as a node->group mapping;
    delivery only succeeds within a group.
    """

    def __init__(
        self,
        engine: Engine,
        rng: SeededRng | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.engine = engine
        self.rng = rng if rng is not None else SeededRng(0)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_sent = self.metrics.counter("net.sent")
        packets = self.metrics.counter("net.packets", labels=("outcome",))
        (
            self._m_delivered, self._m_source_down, self._m_loss,
            self._m_partition, self._m_destination_down, self._m_no_handler,
        ) = [packets.labels(outcome=outcome) for outcome in PACKET_OUTCOMES]
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        self._partition: dict[str, int] = {}

    # -- topology ---------------------------------------------------------
    def add_node(self, name: str, site: str = "default") -> Node:
        """Create and register a node; names must be unique."""
        if name in self._nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        node = Node(name, site=site)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        """True when a node with *name* is registered."""
        return name in self._nodes

    def nodes(self) -> list[Node]:
        """All registered nodes, in insertion order."""
        return list(self._nodes.values())

    def set_link(self, source: str, destination: str, spec: LinkSpec, symmetric: bool = True) -> None:
        """Override the link spec between two nodes."""
        self.node(source)
        self.node(destination)
        self._links[(source, destination)] = spec
        if symmetric:
            self._links[(destination, source)] = spec

    def link_between(self, source: str, destination: str) -> LinkSpec:
        """The effective link spec between two nodes."""
        explicit = self._links.get((source, destination))
        if explicit is not None:
            return explicit
        if self.node(source).site == self.node(destination).site:
            return LAN_LINK
        return WAN_LINK

    # -- partitions -------------------------------------------------------
    def partition(self, groups: list[list[str]]) -> None:
        """Split the network into the given groups of node names.

        Nodes not named in any group remain in an implicit group 0 together
        with nothing else listed — i.e. they can only reach other unlisted
        nodes.
        """
        self._partition = {}
        for index, group in enumerate(groups, start=1):
            for name in group:
                self.node(name)
                self._partition[name] = index

    def heal(self) -> None:
        """Remove all partitions."""
        self._partition = {}

    def reachable(self, source: str, destination: str) -> bool:
        """True when no partition separates the two nodes."""
        if not self._partition:
            return True
        return self._partition.get(source, 0) == self._partition.get(destination, 0)

    # -- transmission -----------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        port: str,
        payload: Any,
        size_bytes: int = 128,
    ) -> Packet:
        """Send a datagram; delivery (or loss) happens asynchronously.

        Returns the in-flight packet.  Loss, partition and crash drops are
        silent at the sender — exactly like a real datagram network — but
        are counted in the ``net.packets{outcome}`` family.
        """
        nodes = self._nodes
        src = nodes.get(source) or self.node(source)
        dst = nodes.get(destination) or self.node(destination)
        engine = self.engine
        packet = Packet(source, destination, port, payload, size_bytes, engine.now)
        self._m_sent.inc()
        if not src._up:
            self._m_source_down.inc()
            return packet
        link = self._links.get((source, destination)) or self.link_between(source, destination)
        if link.loss > 0 and self.rng.chance(link.loss):
            self._m_loss.inc()
            return packet
        delay = link.transmission_delay(size_bytes, self.rng)
        engine.schedule_at(engine.now + delay, partial(self._arrive, packet, dst))
        return packet

    def _arrive(self, packet: Packet, dst: Node) -> None:
        """A packet's transmission delay is over: deliver it, or count
        why it could not be."""
        if not self.reachable(packet.source, packet.destination):
            self._m_partition.inc()
            return
        if not dst._up:
            self._m_destination_down.inc()
            return
        packet.delivered_at = self.engine.now
        if dst.deliver(packet):
            self._m_delivered.inc()
        else:
            self._m_no_handler.inc()

    def broadcast(
        self,
        source: str,
        port: str,
        payload: Any,
        size_bytes: int = 128,
    ) -> int:
        """Send to every other node; return the number of sends attempted."""
        count = 0
        for name in self._nodes:
            if name == source:
                continue
            self.send(source, name, port, payload, size_bytes=size_bytes)
            count += 1
        return count
