#!/usr/bin/env python3
"""Three organisations cooperate over the full substrate stack.

Demonstrates the layering of Figure 4: groupware on the CSCW environment
on the ODP/OSI substrates — an X.500-style directory published from the
organisational knowledge base, X.400-style messaging between three sites,
a trader import with organisational trading policy (section 6.1), and
time transparency (a present colleague is reached synchronously, an
absent one via store-and-forward).

Run:  python examples/distributed_conference.py
"""

from repro.communication.asynchronous import AsyncChannel
from repro.communication.bridge import TimeTransparencyBridge
from repro.communication.model import Communicator
from repro.communication.realtime import RealTimeSession
from repro.directory.dsa import DirectoryServiceAgent
from repro.directory.dua import DirectoryUserAgent
from repro.environment.environment import CSCWEnvironment
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import or_name
from repro.messaging.ua import UserAgent
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.odp.trader import ImportContext
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_SERVICE_IMPORT
from repro.sim.world import World

ANA = or_name("C=ES;A= ;P=UPC;G=Ana;S=Lopez")
WOLF = or_name("C=DE;A= ;P=GMD;G=Wolf;S=Prinz")
TOM = or_name("C=UK;A= ;P=Lancaster;G=Tom;S=Rodden")


def main() -> None:
    world = World(seed=3)
    world.add_site("bcn", ["mta-upc", "ws-ana", "dsa-node"])
    world.add_site("bonn", ["mta-gmd", "ws-wolf"])
    world.add_site("lancs", ["mta-lancs", "ws-tom"])

    # -- the message handling system (X.400 workalike) ----------------------
    upc = MessageTransferAgent(world, "mta-upc", "upc", [("es", "", "upc")])
    gmd = MessageTransferAgent(world, "mta-gmd", "gmd", [("de", "", "gmd")])
    lancs = MessageTransferAgent(world, "mta-lancs", "lancs", [("uk", "", "lancaster")])
    for mta in (upc, gmd, lancs):
        for other in (upc, gmd, lancs):
            if other is not mta:
                mta.add_peer(other.name, other.node)
    upc.routing.add_route("de", "*", "*", "gmd")
    upc.routing.add_route("uk", "*", "*", "lancs")
    gmd.routing.add_route("es", "*", "*", "upc")
    gmd.routing.add_route("uk", "*", "*", "lancs")
    lancs.routing.add_route("es", "*", "*", "upc")
    lancs.routing.add_route("de", "*", "*", "gmd")

    ua_ana = UserAgent(world, "ws-ana", ANA, "mta-upc")
    ua_wolf = UserAgent(world, "ws-wolf", WOLF, "mta-gmd")
    ua_tom = UserAgent(world, "ws-tom", TOM, "mta-lancs")
    for ua in (ua_ana, ua_wolf, ua_tom):
        ua.register()

    # -- organisational knowledge base -> X.500 directory ----------------------
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id, org_name, person_id, person_name, oname in [
        ("upc", "UPC", "ana.lopez", "Ana Lopez", ANA),
        ("gmd", "GMD", "wolf.prinz", "Wolf Prinz", WOLF),
        ("lancaster", "Lancaster", "tom.rodden", "Tom Rodden", TOM),
    ]:
        organisation = Organisation(org_id, org_name)
        organisation.add_person(Person(person_id, person_name, org_id, or_name=oname))
        env.knowledge_base.add_organisation(organisation)
    env.knowledge_base.policies.declare(
        "upc", "gmd", {"*"}, symmetric=True
    )
    env.knowledge_base.policies.declare(
        "upc", "lancaster", {INTERACTION_SERVICE_IMPORT}, symmetric=True
    )

    capsule = Capsule(world.network, "dsa-node")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    dsa = DirectoryServiceAgent("dsa-eu")
    dsa_ref = dsa.deploy(capsule)
    created = env.knowledge_base.publish_to_directory(dsa.dit, country="EU")
    print(f"directory: published {created} entries from the knowledge base")

    dua = DirectoryUserAgent(factory, "ws-ana", dsa_ref)
    hits = dua.search(world, where="(&(objectClass=person)(mail=*))")
    print(f"directory search for mailed persons: "
          f"{[hit.first('cn') for hit in hits]}")

    # -- trading with organisational policy (section 6.1) ------------------------
    env.trader.export("conferencing", dsa_ref, {"cost": 1}, exporter="gmd")
    env.trader.export("conferencing", dsa_ref, {"cost": 5}, exporter="lancaster")
    offer = env.trader.import_one(
        "conferencing",
        preference="min:cost",
        context=ImportContext(importer="ana.lopez", organisation="upc"),
    )
    print(f"trader chose the offer exported by {offer.exporter!r} "
          f"(policy-compatible, cheapest)")

    # -- time transparency across the three sites ----------------------------------
    env.register_person(Communicator("ana.lopez", "ws-ana", or_name=ANA))
    env.register_person(Communicator("wolf.prinz", "ws-wolf", or_name=WOLF))
    env.register_person(Communicator("tom.rodden", "ws-tom", or_name=TOM, present=False))

    session = RealTimeSession(world, "odp-panel")
    heard = []
    session.join("ana.lopez", "ws-ana", lambda s, b: None)
    session.join("wolf.prinz", "ws-wolf", lambda s, b: heard.append(b["text"]))
    bridge = TimeTransparencyBridge(env.communicators, session)
    bridge.attach_async_channel(
        "ana.lopez", AsyncChannel(ua_ana, env.communicators, env.communication_log)
    )

    sync_result = bridge.converse("ana.lopez", "wolf.prinz", "Shall we start?")
    async_result = bridge.converse("ana.lopez", "tom.rodden", "Minutes attached.",
                                   subject="panel minutes")
    world.run()
    print(f"to wolf (present):  {sync_result.mode} -> heard={heard}")
    print(f"to tom (absent):    {async_result.mode} -> "
          f"inbox={[m['subject'] for m in ua_tom.list_inbox()]}")


if __name__ == "__main__":
    main()
