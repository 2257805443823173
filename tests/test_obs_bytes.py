"""Same seed, same bytes: the telemetry of a seeded observed scenario.

A small sharded, mediated environment with a full-rate tracer and a
metrics registry runs about 200 seeded exchanges, then one batch: intra- and
cross-organisation, translated and mediated, to a ghost receiver the
knowledge base does not know, across a policy the organisations never
declared, and with one person moved between organisations mid-run.  The
span JSONL and the metrics snapshot it exports are pinned by sha256, so
a change to the exchange path that claims to leave telemetry alone has
to leave every exported byte alone.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.apps.conferencing import ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.message_system import MessageSystem
from repro.apps.workflow import WorkflowSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.mediation import KIND_PARTIAL, direct_capability
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import to_jsonl
from repro.org.model import Organisation, Person
from repro.sim.world import World

#: two organisations on each of the two shards
ORGS = ["upc", "gmd", "lancs", "ucl"]
#: upc and ucl never declare a policy, so every exchange between them is refused
CLOSED_PAIR = ("upc", "ucl")
PEOPLE = [f"p{index}" for index in range(16)]
#: p1 moves from gmd to lancs, from one shard to the other
MOVER, MOVE_TO = "p1", "lancs"
#: has an endpoint but no knowledge-base entry: delivered, with no shard tag
GHOST = "ghost"
#: known nowhere: refused as an unknown receiver
NOBODY = "nobody"
EXCHANGES = 200
MOVE_AT = 100

SPANS_SHA256 = "6ce8716fb6576d333b0dd9f499845d06a190c9ba3cecbbe394308616b10431f2"
METRICS_SHA256 = "782112dadec7d854e34f9ba197299894499c39ceaa7daf3f4e5784e6c92b9504"


def _fax_to_document(document):
    return {"title": document.get("fax-title", ""),
            "paragraphs": [document.get("fax-body", "")]}


def _faxline() -> AppDescriptor:
    """A converter-less app: only the mediator can translate its format."""
    return AppDescriptor(
        name="faxline",
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="fax",
        capabilities=[direct_capability("fax", "document", _fax_to_document,
                                        fidelity=0.8, kind=KIND_PARTIAL,
                                        exporter="faxline")],
    )


DOCUMENTS = {
    "conferencing": {"topic": "plan", "entry": "we met", "conference": "c0",
                     "author": "a0"},
    "message-system": {"subject": "plan", "text": "we met", "template": "plain",
                       "fields": {"ref": "r0"}},
    "workflow": {"form_name": "plan", "slots": {"summary": "we met", "ref": "r0"}},
    "document-processor": {"title": "plan", "paragraphs": ["we met"]},
    "faxline": {"fax-title": "plan", "fax-body": "we met"},
}


def run_scenario(seed: int = 5):
    """Run the scenario; returns ``(tracer, metrics)`` after the last exchange."""
    world = World(seed=seed)
    metrics, tracer = MetricsRegistry(), Tracer()
    env = (CSCWEnvironment.builder().with_world(world).with_sharding(2)
           .with_mediation().with_metrics(metrics).with_tracer(tracer).build())
    kb = env.knowledge_base
    for org_id in ORGS:
        kb.add_organisation(Organisation(org_id, org_id.upper()))
        world.network.add_node(f"ws-{org_id}", site=org_id)
    for position, org_a in enumerate(ORGS):
        for org_b in ORGS[position + 1:]:
            if (org_a, org_b) != CLOSED_PAIR:
                kb.policies.declare(org_a, org_b, {"*"}, symmetric=True)
    for index, person_id in enumerate(PEOPLE):
        org_id = ORGS[index % len(ORGS)]
        kb.add_person(Person(person_id, person_id.upper(), org_id))
        env.register_person(Communicator(person_id, f"ws-{org_id}"))
    env.register_person(Communicator(GHOST, "ws-upc"))
    for app in (ConferencingSystem(), MessageSystem(), WorkflowSystem(),
                DocumentProcessor()):
        app.attach(env)
    env.register_application(_faxline(), lambda person, document, info: None)
    env.person_leaves(PEOPLE[3])

    rng = random.Random(seed)
    apps = sorted(DOCUMENTS)
    for index in range(EXCHANGES):
        if index == MOVE_AT:
            kb.move_person(MOVER, MOVE_TO)
        sender = rng.choice(PEOPLE)
        draw = rng.random()
        receiver = GHOST if draw < 0.04 else NOBODY if draw < 0.07 else rng.choice(PEOPLE)
        sender_app = rng.choice(apps)
        receiver_app = rng.choice([app for app in apps if app != "faxline"])
        env.exchange(ExchangeRequest(sender, receiver, sender_app, receiver_app,
                                     DOCUMENTS[sender_app]))
    env.exchange_many([
        ExchangeRequest(sender, receiver, "workflow", "conferencing",
                        DOCUMENTS["workflow"])
        for sender, receiver in (("p0", "p2"), ("p0", "p2"), ("p0", GHOST),
                                 ("p0", NOBODY), ("p0", "p3"), ("p4", "p7"))
    ])
    env.person_arrives(PEOPLE[3])
    return tracer, metrics


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scenario_covers_every_branch():
    tracer, metrics = run_scenario()
    spans = [span for span in tracer.drain() if span.name == "env.exchange"]
    assert len(spans) == EXCHANGES
    reasons = {span.tags["reason_code"] for span in spans}
    assert reasons == {"delivered", "policy", "unknown-receiver"}, reasons
    ghosts = [span for span in spans if span.tags["receiver"] == GHOST]
    assert ghosts and all(span.tags["delivered"] for span in ghosts)
    assert all("shard" not in span.tags for span in ghosts)
    assert len({span.tags.get("shard") for span in spans} - {None}) == 2
    mover_shards = [
        (position >= MOVE_AT, span.tags["shard"])
        for position, span in enumerate(spans) if span.tags["receiver"] == MOVER
    ]
    assert {shard for moved, shard in mover_shards if not moved} == {"kb-dsa-1"}
    assert {shard for moved, shard in mover_shards if moved} == {"kb-dsa-0"}
    counters = metrics.snapshot()["counters"]
    assert counters["mediation.translations"] > 0
    assert counters["env.exchange.attempted"] == EXCHANGES + 6


def test_exported_telemetry_bytes_are_pinned():
    tracer, metrics = run_scenario()
    spans = to_jsonl(tracer.drain())
    snapshot = json.dumps(metrics.snapshot(), sort_keys=True)
    assert _sha256(spans) == SPANS_SHA256
    assert _sha256(snapshot) == METRICS_SHA256
