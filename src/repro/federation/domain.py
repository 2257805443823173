"""One administrative domain: a full CSCW environment behind a gateway.

The paper treats an open CSCW system as a specialisation of an open
*distributed* system: each organisational unit runs its own environment
with its own naming, directory, messaging and trading services, and
interoperates with peers through explicit boundary objects.  A
:class:`Domain` bundles exactly that per-unit service stack:

* a :class:`~repro.environment.environment.CSCWEnvironment` (which owns
  the unit's trader, interchange and exchange pipeline, and reads the
  federation's one organisational knowledge base),
* a :class:`~repro.odp.naming.NamingDomain` for federated naming
  (``other-unit:/people/ana``),
* a :class:`~repro.directory.dsa.DirectoryServiceAgent` deployed in a
  capsule on the domain's gateway node (so peers can shadow it),
* a :class:`~repro.messaging.mta.MessageTransferAgent` serving the
  unit's X.400 routing domain, and
* one inbound **gateway endpoint** plus one outbound
  :class:`~repro.federation.gateway.Gateway` per peer domain.

Domains are created and wired by a
:class:`~repro.federation.federation.Federation`, which builds each
domain's environment from its one configured builder; they all share one
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
from repro.odp.naming import NamingDomain
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import InterfaceRef
from repro.sim.transport import RequestReply

if TYPE_CHECKING:
    from repro.odp.trader import Trader

#: the X.400 country/admd every federation domain routes under
MAIL_COUNTRY = "xx"
MAIL_ADMD = "mhs"

class Domain:
    """One org unit's environment, naming, directory, messaging, gateway."""

    def __init__(self, env: CSCWEnvironment) -> None:
        self.env = env
        self.world = world = env.world
        self.name = name = env.name
        self.node = f"gw-{name}"
        world.network.add_node(self.node, site=name)
        self.naming = NamingDomain(name)
        self.capsule = Capsule(world.network, self.node)
        self.dsa = DirectoryServiceAgent(f"dsa-{name}")
        self.directory_ref: InterfaceRef = self.dsa.deploy(self.capsule)
        self.mta = MessageTransferAgent(
            world, self.node, f"mta-{name}", domains=[(MAIL_COUNTRY, MAIL_ADMD, name)]
        )
        self.mta.attach_tracer(env.tracer)
        #: inbound relay endpoint; the federation installs the handler
        self.gateway_rpc = RequestReply(world.network, self.node, port=GATEWAY_PORT)
        #: outbound gateways, one per peer domain, wired by the federation
        self.gateways: dict[str, Gateway] = {}
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
            "people": sorted(
                person.person_id
                for person in self.env.knowledge_base.organisation(self.name).persons()
            ),
            "federated_naming": self.naming.federated_domains(),
            "trader_links": self.trader.links(),
            "gateways": {peer: gw.stats() for peer, gw in sorted(self.gateways.items())},
            "directory_csn": self.dsa.dit.csn,
        }
