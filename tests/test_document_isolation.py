"""Every delivery owns its document; the sender's is never touched.

The exchange pipeline copies a document's top-level dict as few times as
it can, so these tests pin what the copies are for:

* a converter or mediator capability that mutates its input leaves the
  sender's top-level dict as it was;
* a receiving application that mutates its delivery changes neither the
  sender's document nor the next delivery of the same document object
  in an ``exchange_many`` run, synchronous or queued;
* a receiver with a view gets ``_view`` on their own copy only.

Every delivered document is a top-level dict distinct from the sender's
and from every other delivery.
"""

from __future__ import annotations

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import REASON_DELIVERED, CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.mediation import direct_capability
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def document() -> dict:
    return {"title": "minutes", "body": "agenda", "tags": ["odp"]}


def note_converter(name: str, mutate: bool = False) -> FormatConverter:
    """A lossless converter; with *mutate* its to_common pops and adds keys
    on the document it is given."""

    def to_common(doc: dict) -> dict:
        if mutate:
            doc["touched-by"] = name
            doc.pop("body", None)
        return make_common("note", doc["title"], doc.get("body", ""))

    return FormatConverter(
        name, to_common, lambda common: {"title": common["title"], "body": common["body"]}
    )


class Inbox:
    """A delivery callback that records, then optionally vandalises, each
    document it receives."""

    def __init__(self, vandal: bool = False) -> None:
        self.vandal = vandal
        self.received: list[dict] = []

    def __call__(self, person: str, doc: dict, info: dict) -> None:
        self.received.append(doc)
        if self.vandal:
            doc["title"] = "defaced"
            doc["stamp"] = len(self.received)
            doc.pop("body", None)


def make_env(apps: dict[str, tuple[FormatConverter | None, Inbox]], mediation=False):
    """ana@upc, wolf@gmd and cleo@gmd under an open message policy."""
    world = World(seed=0)
    builder = CSCWEnvironment.builder().with_world(world)
    env = (builder.with_mediation() if mediation else builder).build()
    for org_id, people in (("upc", ("ana",)), ("gmd", ("wolf", "cleo"))):
        organisation = Organisation(org_id, org_id.upper())
        for person_id in people:
            organisation.add_person(Person(person_id, person_id.title(), org_id))
        env.knowledge_base.add_organisation(organisation)
        for person_id in people:
            world.network.add_node(f"ws-{person_id}", site=org_id)
            env.register_person(Communicator(person_id, f"ws-{person_id}"))
    env.knowledge_base.policies.declare("upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True)
    for name, (conv, inbox) in apps.items():
        env.register_application(AppDescriptor(name, QUAD, conv), inbox)
    return env


def request(receiver: str, sender_app: str, receiver_app: str, doc: dict) -> ExchangeRequest:
    return ExchangeRequest("ana", receiver, sender_app, receiver_app, doc)


def assert_distinct(sender_doc: dict, delivered: list[dict]) -> None:
    ids = {id(doc) for doc in delivered}
    assert len(ids) == len(delivered), "two deliveries share one top-level dict"
    assert id(sender_doc) not in ids, "a delivery is the sender's own dict"


def test_a_mutating_converter_leaves_the_senders_document_alone():
    inbox = Inbox()
    env = make_env({
        "rough": (note_converter("rough", mutate=True), Inbox()),
        "plain": (note_converter("plain"), inbox),
    })
    sent = document()
    outcome = env.exchange(request("wolf", "rough", "plain", sent))
    assert outcome.reason_code == REASON_DELIVERED and outcome.translated
    assert sent == document()
    assert_distinct(sent, inbox.received)


def test_a_mutating_mediator_capability_leaves_the_senders_document_alone():
    def fax_to_note(doc: dict) -> dict:
        doc["touched-by"] = "fax"
        return {"title": doc.pop("title"), "body": doc.pop("body")}

    inbox = Inbox()
    env = make_env({"plain": (note_converter("plain"), inbox)}, mediation=True)
    env.register_application(
        AppDescriptor("faxline", QUAD, native_format="fax",
                      capabilities=[direct_capability("fax", "plain", fax_to_note)]),
        Inbox(),
    )
    sent = document()
    outcome = env.exchange(request("wolf", "faxline", "plain", sent))
    assert outcome.reason_code == REASON_DELIVERED and outcome.translated
    assert sent == document()
    assert inbox.received == [{"title": "minutes", "body": "agenda"}]
    assert_distinct(sent, inbox.received)


@pytest.mark.parametrize("translated", [False, True], ids=["same-format", "translated"])
@pytest.mark.parametrize("present", [True, False], ids=["synchronous", "queued"])
def test_a_vandal_receiver_cannot_reach_the_sender_or_the_next_delivery(translated, present):
    inbox = Inbox(vandal=True)
    if translated:
        env = make_env({
            "source": (note_converter("source"), Inbox()),
            "target": (note_converter("target"), inbox),
        })
    else:  # the same format: the receiving app is the sender's own
        env = make_env({"source": (note_converter("source"), inbox)})
    sent = {"title": "minutes", "body": "agenda"}
    receiver_app = "target" if translated else "source"
    if not present:
        env.person_leaves("wolf")
    outcomes = env.exchange_many([request("wolf", "source", receiver_app, sent)] * 3)
    assert [outcome.reason_code for outcome in outcomes] == [REASON_DELIVERED] * 3
    if not present:
        assert env.person_arrives("wolf") == 3
    assert sent == {"title": "minutes", "body": "agenda"}
    # each delivery arrived pristine: only its own vandalism shows
    assert [doc["stamp"] for doc in inbox.received] == [1, 2, 3]
    assert all(doc == {"title": "defaced", "stamp": doc["stamp"]} for doc in inbox.received)
    assert_distinct(sent, inbox.received)


def test_a_single_exchange_delivers_a_copy_of_an_untranslated_document():
    inbox = Inbox(vandal=True)
    env = make_env({"source": (note_converter("source"), inbox)})
    sent = {"title": "minutes", "body": "agenda"}
    env.exchange(request("wolf", "source", "source", sent))
    env.exchange(request("wolf", "source", "source", sent))
    assert sent == {"title": "minutes", "body": "agenda"}
    assert_distinct(sent, inbox.received)


@pytest.mark.parametrize("translated", [False, True], ids=["same-format", "translated"])
def test_a_view_annotates_only_its_own_receivers_copy(translated):
    inbox = Inbox()
    env = make_env({
        "source": (note_converter("source"), inbox),
        "target": (note_converter("target"), inbox),
    })
    env.views.set_view("wolf", language="de")
    receiver_app = "target" if translated else "source"
    sent = {"title": "minutes", "body": "agenda"}
    outcomes = env.exchange_many([
        request("wolf", "source", receiver_app, sent),
        request("wolf", "source", receiver_app, sent),
        request("cleo", "source", receiver_app, sent),
        request("cleo", "source", receiver_app, sent),
    ])
    assert [outcome.reason_code for outcome in outcomes] == [REASON_DELIVERED] * 4
    assert sent == {"title": "minutes", "body": "agenda"}
    assert [doc.get("_view") for doc in inbox.received] == [
        {"language": "de"}, {"language": "de"}, None, None
    ]
    inbox.received[0]["_view"]["language"] = "ca"
    assert env.views.view_of("wolf") == {"language": "de"}
    assert inbox.received[1]["_view"] == {"language": "de"}
    assert_distinct(sent, inbox.received)
