"""Lookups on the federated path: home resolution and person reads.

A request to a receiver with no home domain resolves the sender's home
once: the route carries the origin to the refusal, so the request costs
one ``env.federation.home.hit`` and one ``home.miss``.  A person is
found by one read of the knowledge base's person -> organisation index:
an unknown person probes no organisation's roster, in the KB's lookups,
in ``Federation.home_of`` and in the already-homed check of every hire
that ``Federation.partition`` makes.
"""

from __future__ import annotations

import pytest

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, Person
from repro.util.errors import UnknownObjectError

DOC = {"title": "minutes", "body": "agenda"}


def _federation(world):
    metrics = MetricsRegistry()
    federation = Federation.partition(
        world, {"upc": ["ana"], "gmd": ["bob"]}, metrics=metrics
    )
    converter = FormatConverter(
        "fmt",
        lambda document: make_common("note", document["title"], document["body"]),
        lambda common: {"title": common["title"], "body": common["body"]},
    )
    federation.register_application(
        AppDescriptor(
            name="app0", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter=converter
        ),
        lambda person, document, info: None,
    )
    return federation, metrics


def _home_lookups(metrics):
    counters = metrics.snapshot()["counters"]
    return (
        counters.get("env.federation.home.hit", 0),
        counters.get("env.federation.home.miss", 0),
    )


def test_lone_request_to_a_homeless_receiver_costs_one_hit_one_miss(world):
    federation, metrics = _federation(world)
    hits, misses = _home_lookups(metrics)
    outcome = federation.federated_exchange(
        ExchangeRequest("ana", "ghost", "app0", "app0", DOC)
    )
    assert outcome.reason_code == "unknown-receiver"
    assert outcome.origin == "upc"
    assert _home_lookups(metrics) == (hits + 1, misses + 1)


def test_batched_ghost_item_costs_one_hit_one_miss(world):
    federation, metrics = _federation(world)
    hits, misses = _home_lookups(metrics)
    outcomes = federation.federated_exchange_many([
        ExchangeRequest("ana", "bob", "app0", "app0", DOC),
        ExchangeRequest("ana", "ghost", "app0", "app0", DOC),
        ExchangeRequest("bob", "ghost", "app0", "app0", DOC),
    ])
    assert [(o.origin, o.reason_code) for o in outcomes] == [
        ("upc", "delivered"),
        ("upc", "unknown-receiver"),
        ("gmd", "unknown-receiver"),
    ]
    # two hits for the routed item, one hit and one miss per ghost
    assert _home_lookups(metrics) == (hits + 4, misses + 2)


def _knowledge_base(organisations: int) -> OrganisationalKnowledgeBase:
    kb = OrganisationalKnowledgeBase()
    for index in range(organisations):
        org = f"org{index}"
        kb.add_organisation(Organisation(org, org.upper()))
        kb.add_person(Person(f"p{index}", f"Person {index}", org))
    return kb


def test_find_person_reads_the_index():
    kb = _knowledge_base(5)
    person = kb.find_person("p4")
    assert (person.person_id, person.organisation) == ("p4", "org4")
    assert kb.organisation_of("p0") == "org0"


def test_find_person_unknown_id_raises_the_same_error():
    kb = _knowledge_base(3)
    with pytest.raises(UnknownObjectError) as raised:
        kb.find_person("nobody")
    assert str(raised.value) == "person 'nobody' not found in any organisation"


def _count_roster_probes(monkeypatch) -> list[str]:
    """Record every ``Organisation.person`` call from here on."""
    calls: list[str] = []
    probe = Organisation.person

    def counted(self, person_id):
        calls.append(person_id)
        return probe(self, person_id)

    monkeypatch.setattr(Organisation, "person", counted)
    return calls


def test_a_ghost_probes_no_roster(world, monkeypatch):
    federation, _ = _federation(world)
    kb = federation.knowledge_base
    calls = _count_roster_probes(monkeypatch)
    for lookup in (kb.find_person, kb.organisation_of, federation.home_of):
        with pytest.raises(UnknownObjectError):
            lookup("ghost")
    assert calls == []


def test_partition_probes_no_roster(world, monkeypatch):
    # 32 domains x 16 people: a scan per already-homed check would make
    # 512 hires x 32 organisations = 16,384 probes
    calls = _count_roster_probes(monkeypatch)
    assignment = {
        f"d{domain}": [f"d{domain}-p{person}" for person in range(16)]
        for domain in range(32)
    }
    federation = Federation.partition(world, assignment)
    assert calls == []
    assert len(federation.knowledge_base.person_index) == 512
    assert federation.home_of("d31-p15") == "d31"

