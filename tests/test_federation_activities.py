"""One inter-activity model per federation.

A :class:`Federation` holds one activity registry and one dependency
graph, and every domain environment reads them (handed over with
``EnvironmentBuilder.with_activities``).  These tests pin the structure
(every domain, whenever it was added, holds the federation's own
objects), what a dependency written through one domain does in another
(awareness and scheduling), and the application registrations a domain
added later inherits.
"""

from __future__ import annotations

from repro.activity.dependencies import BEFORE
from repro.environment.awareness import AwarenessService
from repro.environment.environment import REASON_DELIVERED, CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]
DOC = {"title": "minutes", "body": "agenda"}


def _plain() -> AppDescriptor:
    return AppDescriptor("plain", QUAD, FormatConverter(
        "plain",
        lambda document: make_common("note", document["title"], document["body"]),
        lambda common: {"title": common["title"], "body": common["body"]},
    ))


def test_every_domain_reads_the_federations_activity_model(world):
    """An activity created before any domain exists, and one created
    before a domain joins, are both in every domain's registry: there is
    one registry and one dependency graph, not a copy per domain.  An
    environment built outside the federation keeps its own pair."""
    federation = Federation(world)
    federation.create_shared_activity("early", "Kick-off", {"ana": "chair"})
    federation.add_domain("upc")
    federation.add_domain("gmd")
    federation.create_shared_activity("a1", "Review", {"ana": "chair", "bob": "member"})
    federation.add_domain("inria")
    for domain in federation.domains():
        assert domain.env.activities is federation.activities
        assert domain.env.dependencies is federation.dependencies
        assert [a.activity_id for a in domain.env.activities.all()] == ["early", "a1"]
    assert federation.domain("inria").env.activities.get("a1").member_ids() == ["ana", "bob"]
    standalone = CSCWEnvironment.builder().with_world(world).build()
    assert standalone.activities is not federation.activities
    assert standalone.dependencies is not federation.dependencies


def test_a_dependency_written_through_one_domain_is_seen_by_another(world):
    """``upc`` orders design before build; ``gmd``'s awareness relates
    bob's build to design, and ``gmd``'s scheduler holds build back until
    design completes."""
    federation = Federation.partition(world, {"upc": ["ana"], "gmd": ["bob"]})
    federation.create_shared_activity("design", "Design", {"ana": "lead"})
    federation.create_shared_activity("build", "Build", {"bob": "developer"})
    upc, gmd = federation.domain("upc").env, federation.domain("gmd").env
    upc.dependencies.add(BEFORE, "design", "build")
    assert AwarenessService(gmd).related_activities("bob") == ["design"]
    assert not gmd.scheduler.ready_to_start("build")
    assert upc.scheduler.start_ready(0.0) == ["design"]
    upc.activities.get("design").complete(1.0)
    assert gmd.scheduler.ready_to_start("build")


def test_an_application_registered_before_a_domain_joins_serves_it(world):
    """``register_application`` is replayed into every domain added later,
    so an exchange into that domain finds the application there."""
    inbox: list = []
    federation = Federation(world)
    federation.add_domain("upc")
    federation.register_application(_plain(), lambda person, doc, info: inbox.append(person))
    federation.add_domain("inria")
    federation.open_policies()
    federation.add_person("ana", "upc")
    federation.add_person("dan", "inria")
    outcome = federation.federated_exchange(
        ExchangeRequest("ana", "dan", "plain", "plain", DOC)
    )
    assert outcome.reason_code == REASON_DELIVERED, outcome.outcome.reason
    assert (outcome.origin, outcome.target) == ("upc", "inria")
    assert inbox == ["dan"]
