#!/usr/bin/env python3
"""Two administrative domains cooperating through a federation.

The paper's progression argument: open CSCW requires cooperation
*across* organisations, which in ODP terms means crossing an
administrative domain boundary.  This demo runs two org units — UPC
(Barcelona) and GMD (Bonn) — as separate CSCW environments on one sim
engine, federated by `repro.federation`:

* each unit keeps its own naming domain, directory (DSA), MTA and
  trader; the federation wires naming federation, trader links and
  directory shadowing between them,
* one shared activity ("Joint report") spans both units,
* a document authored in UPC's editor is exchanged to GMD's reviewer
  tool: resolved via federated naming, relayed through the inter-domain
  gateway over a WAN link, translated at the target — the printed hop
  trace shows where every simulated millisecond went,
* severing the link shows the store-and-forward side: retries, a dead
  letter, and redelivery after the link heals.

Run:  PYTHONPATH=src python examples/federation_demo.py
"""

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.environment.transparency import TransparencyProfile
from repro.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.sim.world import World

QUADRANT = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def editor_converter() -> FormatConverter:
    return FormatConverter(
        "editor-ml",
        lambda doc: make_common("report", doc["heading"], doc["text"]),
        lambda common: {"heading": common["title"], "text": common["body"]},
    )


def reviewer_converter() -> FormatConverter:
    return FormatConverter(
        "review-form",
        lambda doc: make_common("report", doc["subject"], doc["content"]),
        lambda common: {"subject": common["title"], "content": common["body"]},
    )


def print_hops(outcome) -> None:
    print(f"    outcome: delivered={outcome.delivered} "
          f"mode={outcome.mode} reason={outcome.outcome.reason!r}")
    print(f"    gateway attempts: {outcome.attempts}, "
          f"simulated round trip: {outcome.latency_s * 1000:.1f} ms")
    for hop in outcome.hops:
        print(f"      [{hop.time * 1000:8.1f} ms] {hop.role:<8} @ {hop.domain}")


def main() -> None:
    world = World(seed=42)
    metrics = MetricsRegistry()
    federation = Federation.partition(
        world,
        {"upc": ["ana", "joan"], "gmd": ["uta", "klaus"]},
        metrics=metrics,
    )

    print("== Federation: two org units on one engine ==")
    for domain in federation.domains():
        print(f"  domain {domain.name}: gateway node {domain.node}, "
              f"naming federated with {domain.naming.federated_domains()}")

    # One integration per application serves the whole federation.
    inbox = []
    federation.register_application(
        AppDescriptor(name="editor", quadrants=QUADRANT, converter=editor_converter()),
        lambda person, doc, info: None,
    )
    federation.register_application(
        AppDescriptor(name="reviewer", quadrants=QUADRANT, converter=reviewer_converter()),
        lambda person, doc, info: inbox.append((person, doc)),
    )

    # One shared activity spanning both units.
    federation.create_shared_activity(
        "joint-report", "Joint report",
        {"ana": "author", "uta": "reviewer"},
    )

    print("\n== Cross-domain exchange: ana@upc -> uta@gmd ==")
    draft = {"heading": "Joint report draft", "text": "Sections 1-3 attached."}
    outcome = federation.federated_exchange(ExchangeRequest(
        "ana", "uta", "editor", "reviewer", draft, activity_id="joint-report"
    ))
    print_hops(outcome)
    person, received = inbox[-1]
    print(f"    uta's reviewer tool received: {received}")

    print("\n== Transparency still enforced across the boundary ==")
    opaque = federation.federated_exchange(ExchangeRequest(
        "ana", "uta", "editor", "reviewer", draft,
        activity_id="joint-report",
        profile=TransparencyProfile.all_on().without("organisation"),
    ))
    print(f"    organisation transparency off -> "
          f"delivered={opaque.delivered}, reason_code={opaque.reason_code}")

    print("\n== Severed link: store-and-forward with a dead letter ==")
    world.network.node("gw-gmd").crash()
    parked = federation.federated_exchange(ExchangeRequest(
        "ana", "uta", "editor", "reviewer",
        {"heading": "Section 4", "text": "Written during the outage."},
        activity_id="joint-report",
    ))
    print(f"    link down -> delivered={parked.delivered}, "
          f"reason_code={parked.reason_code}, attempts={parked.attempts}")
    gateway = federation.domain("upc").gateway_to("gmd")
    print(f"    gateway stats: {gateway.stats()}")
    world.network.node("gw-gmd").recover()
    redriven = gateway.redrive()
    world.run_for(5.0)
    print(f"    link healed, {redriven} dead letter redriven -> "
          f"uta received {len(inbox)} documents in total")

    print("\n== joan moves from upc to gmd ==")
    federation.move_person("joan", "gmd")
    moved = federation.federated_exchange(ExchangeRequest(
        "ana", "joan", "editor", "reviewer",
        {"heading": "Welcome to gmd", "text": "Same report, new unit."},
    ))
    print(f"    joan's home is now {federation.home_of('joan')}; ana -> joan crosses the boundary:")
    print_hops(moved)

    print("\n== Federation counters ==")
    counters = metrics.snapshot()["counters"]
    for key in sorted(counters):
        if key.startswith(("env.federation.", "gateway.")):
            print(f"    {key} = {counters[key]}")


if __name__ == "__main__":
    main()
