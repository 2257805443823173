"""One administrative domain: a full CSCW environment behind a gateway.

The paper treats an open CSCW system as a specialisation of an open
*distributed* system: each organisational unit runs its own environment
with its own naming, directory, messaging and trading services, and
interoperates with peers through explicit boundary objects.  A
:class:`Domain` bundles exactly that per-unit service stack:

* a :class:`~repro.environment.environment.CSCWEnvironment` (which owns
  the unit's trader, knowledge base, interchange and exchange pipeline),
* a :class:`~repro.odp.naming.NamingDomain` for federated naming
  (``other-unit:/people/ana``),
* a :class:`~repro.directory.dsa.DirectoryServiceAgent` deployed in a
  capsule on the domain's gateway node (so peers can shadow it),
* a :class:`~repro.messaging.mta.MessageTransferAgent` serving the
  unit's X.400 routing domain, and
* one inbound **gateway endpoint** plus one outbound
  :class:`~repro.federation.gateway.Gateway` per peer domain.

Domains are created and wired by a
:class:`~repro.federation.federation.Federation`; they all share one
simulated world (one engine), which is what makes whole-federation runs
deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.directory.dsa import DirectoryServiceAgent
from repro.environment.environment import CSCWEnvironment
from repro.federation.gateway import GATEWAY_PORT, Gateway
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import OrName
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.odp.naming import NamingDomain
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import InterfaceRef
from repro.sim.transport import RequestReply
from repro.sim.world import World

if TYPE_CHECKING:
    from repro.odp.trader import Trader

#: the X.400 country/admd every federation domain routes under
MAIL_COUNTRY = "xx"
MAIL_ADMD = "mhs"

class Domain:
    """One org unit's environment, naming, directory, messaging, gateway."""

    def __init__(
        self,
        world: World,
        name: str,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        shed_limit: int | None = None,
        default_deadline_s: float | None = None,
        shards: int | None = None,
        mediation: bool = False,
    ) -> None:
        self.world = world
        self.name = name
        self.node = f"gw-{name}"
        world.network.add_node(self.node, site=name)
        builder = CSCWEnvironment.builder().with_world(world).with_name(name)
        if shards is not None:
            # large-population domains shard their KB/white pages across
            # N DSAs; home resolution then reads one owning shard only
            builder = builder.with_sharding(shards)
        if mediation:
            builder = builder.with_mediation()
        if metrics is not None:
            builder = builder.with_metrics(metrics)
        if tracer is not None:
            builder = builder.with_tracer(tracer)
        if events is not None:
            builder = builder.with_event_log(events)
        if shed_limit is not None:
            builder = builder.with_shed_limit(shed_limit)
        if default_deadline_s is not None:
            builder = builder.with_default_deadline(default_deadline_s)
        self.env: CSCWEnvironment = builder.build()
        self.naming = NamingDomain(name)
        self.capsule = Capsule(world.network, self.node)
        self.dsa = DirectoryServiceAgent(f"dsa-{name}")
        self.directory_ref: InterfaceRef = self.dsa.deploy(self.capsule)
        self.mta = MessageTransferAgent(
            world, self.node, f"mta-{name}", domains=[(MAIL_COUNTRY, MAIL_ADMD, name)]
        )
        if tracer is not None:
            self.mta.attach_tracer(tracer)
        #: inbound relay endpoint; the federation installs the handler
        self.gateway_rpc = RequestReply(world.network, self.node, port=GATEWAY_PORT)
        #: outbound gateways, one per peer domain, wired by the federation
        self.gateways: dict[str, Gateway] = {}
        #: person ids homed in this domain
        self.people: set[str] = set()
        #: relay_id -> reply (or in-flight DeferredReply): the inbound
        #: memo that makes at-least-once relays at-most-once here
        #: (bounded; insert via :func:`repro.sim.transport.remember_reply`)
        self.relay_seen: dict[str, object] = {}

    @property
    def trader(self) -> "Trader":
        """The unit's ODP trader (owned by the environment)."""
        return self.env.trader

    def gateway_to(self, other: str) -> Gateway:
        """The outbound gateway towards peer domain *other*."""
        try:
            return self.gateways[other]
        except KeyError:
            raise KeyError(
                f"domain {self.name!r} has no gateway to {other!r}"
            ) from None

    def workstation(self, person_id: str) -> str:
        """The name of a person's workstation node in this domain."""
        return f"{self.name}-ws-{person_id}"

    def or_name(self, person_id: str) -> OrName:
        """A person's O/R name in this domain's mail routing domain."""
        return OrName(
            country=MAIL_COUNTRY, admd=MAIL_ADMD, prmd=self.name, surname=person_id
        )

    def describe(self) -> dict:
        """A small inventory snapshot (the per-domain slice of the federation)."""
        return {
            "name": self.name,
            "node": self.node,
            "people": sorted(self.people),
            "federated_naming": self.naming.federated_domains(),
            "trader_links": self.trader.links(),
            "gateways": {peer: gw.stats() for peer, gw in sorted(self.gateways.items())},
            "directory_csn": self.dsa.dit.csn,
        }
