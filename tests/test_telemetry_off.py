"""Telemetry that is off records nothing.

``enabled`` is the one off-switch for metrics, tracing and events: every
write checks it first, and the shared null objects (``NULL_METRICS``,
``NULL_TRACER``, ``NULL_EVENTS``) exist only to be bound.  The scenario
below drives, with no registry, tracer or event log attached, the paths
that write telemetry when it is on: load shedding and expiry, a
federation that dead-letters, fails over, probes its links and shadows
its directories, a control plane acting on a burning SLO, an MTA
transfer and a mediated translation.  Any write that skipped its
``enabled`` check would land in a null object and fail this test.
"""

from __future__ import annotations

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DEADLINE_EXCEEDED,
    REASON_DELIVERED,
    REASON_OVERLOAD,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.mediation.capability import KIND_PARTIAL, direct_capability
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import or_name
from repro.messaging.ua import UserAgent
from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_TRACER, MetricsRegistry, SLOEngine
from repro.org.model import Organisation, Person
from repro.sim.network import LinkSpec
from repro.sim.world import World

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]
DOC = {"title": "minutes", "body": "agenda"}


def converter(name: str) -> FormatConverter:
    return FormatConverter(
        name,
        lambda document: make_common("note", document["title"], document["body"]),
        lambda common: {"title": common["title"], "body": common["body"]},
    )


def null_state() -> tuple:
    """What the null objects hold, the shared instruments included."""
    return (
        NULL_METRICS.snapshot(),
        NULL_METRICS.counter("any").value,
        NULL_METRICS.counter("any", labels=("k",)).labels(k="v").value,
        NULL_METRICS.gauge("any").value,
        NULL_METRICS.histogram("any").count,
        NULL_TRACER.finished(),
        NULL_EVENTS.recorded,
        NULL_EVENTS.events(),
    )


EMPTY = ({"counters": {}, "gauges": {}, "histograms": {}}, 0, 0, 0.0, 0, [], 0, [])


def shed_and_expire() -> list:
    """One environment: a mediated translation delivers, a full queue
    sheds, a queued delivery expires and a late request is refused."""
    world = World(seed=3)
    env = CSCWEnvironment.builder().with_world(world).with_shed_limit(1).with_mediation().build()
    upc = Organisation("upc", "UPC")
    for person in ("ana", "wolf"):
        upc.add_person(Person(person, person.title(), "upc"))
    env.knowledge_base.add_organisation(upc)
    world.add_site("bcn", ["ws-ana", "ws-wolf"])
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("wolf", "ws-wolf"))
    env.register_application(AppDescriptor("plain", QUAD, converter("plain")), lambda *_: None)
    env.register_application(AppDescriptor(
        "faxline", QUAD, native_format="fax",
        capabilities=[direct_capability(
            "fax", "plain", lambda d: {"title": d["fax-title"], "body": d["fax-body"]},
            fidelity=0.95, kind=KIND_PARTIAL, exporter="faxline",
        )],
    ), lambda *_: None)
    codes = [env.exchange(ExchangeRequest(
        "ana", "wolf", "faxline", "plain", {"fax-title": "offer", "fax-body": "sign"}
    )).reason_code]
    env.person_leaves("wolf")
    request = ExchangeRequest("ana", "wolf", "plain", "plain", DOC, deadline=world.now + 1.0)
    codes += [env.exchange(request).reason_code for _ in range(2)]
    world.run_for(2.0)
    codes.append(env.person_arrives("wolf"))
    codes.append(env.exchange(request).reason_code)
    return codes


def federate() -> dict:
    """Three domains with health checks, shadowing and a control plane
    on a burning SLO: one exchange fails over, one dead-letters."""
    world = World(seed=5)
    names = ("upc", "gmd", "inria")
    federation = Federation.partition(world, {name: [f"p-{name}"] for name in names})
    federation.register_application(AppDescriptor("app0", QUAD, converter("fmt")), lambda *_: None)
    federation.publish_directories()
    federation.start_shadowing()
    monitor = federation.start_health_checks()
    source = MetricsRegistry()
    slo = SLOEngine(world.engine, source, sample_period_s=0.5).add_ratio(
        "delivery", good="good", total="total", target=0.99, window_s=5.0
    )
    slo.start()
    control = federation.attach_control(slo=slo)
    control.start()
    upc, gmd, inria = (federation.domain(name) for name in names)
    upc.gateway_to("gmd").breaker.force_open()
    routed = federation.federated_exchange(ExchangeRequest("p-upc", "p-gmd", "app0", "app0", DOC))
    world.network.set_link(
        inria.node, upc.node, LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0)
    )
    lost = federation.federated_exchange(ExchangeRequest("p-inria", "p-upc", "app0", "app0", DOC))
    source.counter("total").inc(10)
    world.run_for(35.0)
    slo.stop()
    federation.stop_health_checks()
    return {
        "routed": [hop.role for hop in routed.hops],
        "lost": lost.reason_code,
        "burns": slo.evaluate()["delivery"]["alerts"],
        "actions": control.actions_applied,
        "probes": monitor.probes,
        "pulls": sum(agreement.pulls for agreement in federation.shadowing.values()),
    }


def transfer_mail() -> int:
    """One X.400 message relayed between two MTAs."""
    world = World(seed=7)
    world.add_site("bcn", ["mta-upc", "ws-ana"])
    world.add_site("bonn", ["mta-gmd", "ws-wolf"])
    upc = MessageTransferAgent(world, "mta-upc", "upc", [("es", "", "upc")])
    gmd = MessageTransferAgent(world, "mta-gmd", "gmd", [("de", "", "gmd")])
    upc.add_peer(gmd.name, gmd.node)
    gmd.add_peer(upc.name, upc.node)
    upc.routing.add_route("de", "*", "*", "gmd")
    gmd.routing.add_route("es", "*", "*", "upc")
    ana = UserAgent(world, "ws-ana", or_name("C=ES;A= ;P=UPC;G=Ana;S=Lopez"), "mta-upc")
    wolf_name = or_name("C=DE;A= ;P=GMD;G=Wolf;S=Prinz")
    wolf = UserAgent(world, "ws-wolf", wolf_name, "mta-gmd")
    for agent in (ana, wolf):
        agent.register()
    ana.send([wolf_name], "greetings", "hello from Barcelona")
    world.run()
    return len(wolf.list_inbox())


def test_telemetry_that_is_off_records_nothing():
    assert null_state() == EMPTY
    # delivered, queued, shed, nothing left to flush (it expired), refused late
    assert shed_and_expire() == [
        REASON_DELIVERED, REASON_DELIVERED, REASON_OVERLOAD, 0, REASON_DEADLINE_EXCEEDED
    ]
    federated = federate()
    assert federated["routed"] == ["origin", "relay", "deliver", "reply"]
    assert federated["lost"] == "gateway-dead-letter"
    assert federated["burns"] == 1
    assert federated["actions"] > 0
    assert federated["probes"] > 0
    assert federated["pulls"] > 0
    assert transfer_mail() == 1
    assert null_state() == EMPTY
