#!/usr/bin/env python3
"""Quickstart: an open CSCW environment in ~60 lines.

Two organisations (UPC in Barcelona, GMD in Bonn), two different
groupware applications (COM-style conferencing and an Object-Lens-style
message system), one shared CSCW environment.  Ana posts from her
conferencing tool; Wolf receives a typed memo in his message system —
across organisations, across formats, with no pairwise gateway.

Run:  python examples/quickstart.py
"""

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.obs import MetricsRegistry, Tracer
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World


def main() -> None:
    # 1. A simulated deployment: two sites, one workstation each.
    world = World(seed=7)
    world.add_site("barcelona", ["ws-ana"])
    world.add_site("bonn", ["ws-wolf"])

    # 2. The CSCW environment, built the recommended way: the fluent
    #    builder, with observability (metrics + sim-clock tracing)
    #    injected at construction.
    metrics = MetricsRegistry()
    tracer = Tracer()
    env = (CSCWEnvironment.builder()
           .with_world(world)
           .with_name("mocca")
           .with_metrics(metrics)
           .with_tracer(tracer)
           .build())
    upc = Organisation("upc", "UPC")
    upc.add_person(Person("ana", "Ana Lopez", "upc"))
    gmd = Organisation("gmd", "GMD")
    gmd.add_person(Person("wolf", "Wolfgang Prinz", "gmd"))
    env.knowledge_base.add_organisation(upc)
    env.knowledge_base.add_organisation(gmd)
    env.knowledge_base.policies.declare(
        "upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True
    )
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("wolf", "ws-wolf"))

    # 3. Two heterogeneous applications integrate with ONE step each.
    conferencing = ConferencingSystem()
    messages = MessageSystem()
    conferencing.attach(env, exporter_org="upc")
    messages.attach(env, exporter_org="gmd")

    # 4. Cross-application, cross-organisation exchange.
    outcome = env.exchange(ExchangeRequest(
        sender="ana",
        receiver="wolf",
        sender_app="conferencing",
        receiver_app="message-system",
        document={
            "topic": "Open CSCW systems",
            "entry": "Will ODP help? We think: yes!",
            "conference": "mocca",
            "author": "ana",
        },
    ))
    print(f"delivered={outcome.delivered} mode={outcome.mode} "
          f"translated={outcome.translated} handled={outcome.handled}")

    memo = messages.folder("wolf")[0]
    print(f"wolf's memo: subject={memo.subject!r} text={memo.text!r}")

    # 5. The openness numbers (Figure 2 vs Figure 3 in miniature).
    print(f"integration cost: {env.integration_cost()} converters "
          f"(closed world would need {2 * 1} gateways for 2 apps, "
          f"N*(N-1) in general)")
    print(f"interop coverage: {env.interop_coverage():.0%}")

    # 6. The observability injected in step 2: the exchange was counted,
    #    classified and traced (in simulated time) as it ran.
    counters = metrics.snapshot()["counters"]
    delivered = f"env.exchange.outcomes{{domain={env.name},outcome=delivered}}"
    print(f"metrics: outcome={outcome.reason_code!r} trace={outcome.trace_id} "
          f"delivered_count={counters[delivered]} "
          f"events_published={counters['events.published']}")
    for span in tracer.finished():
        print(f"trace span: {span.name} [{span.trace_id}] "
              f"delivered={span.tags['delivered']} mode={span.tags['mode']}")


if __name__ == "__main__":
    main()
