"""The resolution cache against its cold reference and its size bound.

``ResolutionCache.route`` reads each person's organisation from the
knowledge base's person index, memoises each organisation pair's
verdicts, and evicts by the entity a knowledge-base event names.  The
property test drives random hires, moves, removals, organisation
registrations and re-registrations, direct roster writes on a registered
``Organisation`` (which fire no knowledge-base event) and policy
declares/revokes through a knowledge base with the cache attached, and
after every step checks the memoised verdict against ``_resolve_route``,
the uncached reading of the same knowledge base, and the index against a
scan of the rosters.  The size test pins why the memo stays small: it
holds organisation pairs, never people or person pairs.

The observer tests drive the same steps through
``ResolutionCache.organisation_of``, the read behind an exchange span's
``shard`` tag: it must equal a cold read of the knowledge base, and a
traced environment must hold and count exactly what its untraced twin
does.  A warm observed exchange reads the knowledge base no more often
than an untraced one: not at all.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.obs import Tracer
from repro.org.model import Organisation, Person
from repro.org.policy import (
    INTERACTION_MESSAGE,
    INTERACTION_REALTIME,
    INTERACTION_SHARE_DOCUMENT,
)
from repro.sim.world import World
from repro.util.errors import UnknownObjectError

PEOPLE = [f"p{index}" for index in range(6)]
ORGS = [f"o{index}" for index in range(4)]
KINDS = [INTERACTION_MESSAGE, INTERACTION_REALTIME, INTERACTION_SHARE_DOCUMENT]

person = st.sampled_from(PEOPLE)
org = st.sampled_from(ORGS)
operation = st.one_of(
    st.tuples(st.just("hire"), person, org),
    st.tuples(st.just("move"), person, org),
    st.tuples(st.just("remove"), person),
    st.tuples(st.just("organisation"), org, st.lists(person, max_size=3, unique=True)),
    st.tuples(st.just("reregister"), org, st.lists(person, max_size=2, unique=True)),
    st.tuples(st.just("direct"), person, org),
    st.tuples(
        st.just("declare"), org, org,
        st.sets(st.sampled_from([*KINDS, "*"]), max_size=2), st.booleans(),
    ),
    st.tuples(st.just("revoke"), org, org, st.booleans()),
)
query = st.tuples(person, person, st.sampled_from(KINDS))
EVERY_ROUTE = list(itertools.product(PEOPLE, PEOPLE, KINDS))
steps = st.lists(st.tuples(operation, st.lists(query, min_size=1, max_size=6)),
                 max_size=25)


def build(shards, cache=True, tracer=None):
    builder = CSCWEnvironment.builder().with_world(World(seed=0))
    if shards:
        builder = builder.with_sharding(shards)
    if not cache:
        builder = builder.with_resolution_cache(False)
    if tracer is not None:
        builder = builder.with_tracer(tracer)
    env = builder.build()
    kb = env.knowledge_base
    for org_id, member in (("o0", "p0"), ("o1", "p1")):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(member, member.upper(), org_id))
        kb.add_organisation(organisation)
    return env


def organisation_of(kb, person_id):
    try:
        return kb.organisation_of(person_id)
    except UnknownObjectError:
        return None


def rosters(kb):
    """person id -> organisation id, read from every organisation's roster."""
    return {
        member.person_id: organisation.org_id
        for organisation in kb.organisations()
        for member in organisation.persons()
    }


def apply(kb, op) -> bool:
    """Apply *op* to *kb* when it is valid there.

    True when a knowledge-base event fired: a ``direct`` write goes
    straight to a registered organisation's roster and fires none.
    """
    kind, *args = op
    orgs = {organisation.org_id for organisation in kb.organisations()}
    if kind == "hire":
        person_id, org_id = args
        if org_id not in orgs or organisation_of(kb, person_id) is not None:
            return False
        kb.add_person(Person(person_id, person_id.upper(), org_id))
    elif kind == "move":
        person_id, org_id = args
        if org_id not in orgs or organisation_of(kb, person_id) is None:
            return False
        kb.move_person(person_id, org_id)
    elif kind == "remove":
        (person_id,) = args
        if organisation_of(kb, person_id) is None:
            return False
        kb.remove_person(person_id)
    elif kind == "organisation":
        # registers a new organisation, or replaces one; its members were
        # unknown (or already in it) and become resolvable
        org_id, members = args
        organisation = Organisation(org_id, org_id.upper())
        for member in members:
            if organisation_of(kb, member) in (None, org_id):
                organisation.add_person(Person(member, member.upper(), org_id))
        kb.add_organisation(organisation)
    elif kind == "reregister":
        # replaces a registered organisation with a fresh one of the same
        # id holding its roster minus the drawn leavers
        org_id, leavers = args
        if org_id not in orgs:
            return False
        organisation = Organisation(org_id, org_id.upper())
        for member in kb.organisation(org_id).persons():
            if member.person_id not in leavers:
                organisation.add_person(member)
        kb.add_organisation(organisation)
    elif kind == "direct":
        # a person known to the KB leaves their organisation's roster, an
        # unknown one joins *org_id*'s, neither through the KB
        person_id, org_id = args
        current = organisation_of(kb, person_id)
        if current is not None:
            kb.organisation(current).remove_person(person_id)
        elif org_id in orgs:
            kb.organisation(org_id).add_person(Person(person_id, person_id.upper(), org_id))
        return False
    elif kind == "declare":
        org_a, org_b, allowed, symmetric = args
        kb.policies.declare(org_a, org_b, allowed, symmetric=symmetric)
    else:
        org_a, org_b, symmetric = args
        return kb.policies.revoke(org_a, org_b, symmetric=symmetric) > 0
    return True


class TestCachedMatchesCold:
    @pytest.mark.parametrize("shards", [None, 2])
    @settings(max_examples=150, deadline=None)
    @given(script=steps)
    def test_route_matches_cold_resolution_under_mutation(self, shards, script):
        env = build(shards)
        kb, cache = env.knowledge_base, env.resolution
        calls = 0
        for op, queries in script:
            generation = kb.generation
            if apply(kb, op):
                assert kb.generation > generation, op
            assert dict(kb.person_index) == rosters(kb), op
            # the drawn queries warm the memo in a drawn order; the sweep
            # then checks (and warms) every route the next step can stale
            for sender, receiver, interaction in [*queries, *EVERY_ROUTE]:
                cold = cache._resolve_route(sender, receiver, interaction)
                assert cache.route(sender, receiver, interaction) == cold, (op, sender, receiver)
                calls += 1
        stats = cache.stats()
        assert stats["route_hits"] + stats["route_misses"] == calls


def converter(name: str) -> FormatConverter:
    return FormatConverter(
        name,
        lambda document: make_common("note", document["title"], document["body"]),
        lambda common: {"title": common["title"], "body": common["body"]},
    )


class TestMemoSize:
    def test_memo_holds_org_pairs_not_people(self, world):
        people, organisations = 12, 3
        interactions = (INTERACTION_MESSAGE, INTERACTION_REALTIME)
        env = CSCWEnvironment.builder().with_world(world).with_sharding(2).build()
        kb = env.knowledge_base
        org_ids = [f"o{index}" for index in range(organisations)]
        for org_id in org_ids:
            kb.add_organisation(Organisation(org_id, org_id.upper()))
            world.network.add_node(f"ws-{org_id}", site=org_id)
        for position, org_a in enumerate(org_ids):
            for org_b in org_ids[position + 1:]:
                kb.policies.declare(org_a, org_b, {"*"}, symmetric=True)
        person_ids = [f"p{index}" for index in range(people)]
        for index, person_id in enumerate(person_ids):
            org_id = org_ids[index % organisations]
            kb.add_person(Person(person_id, person_id.upper(), org_id))
            env.register_person(Communicator(person_id, f"ws-{org_id}"))
        for name in ("writer", "reader"):
            env.applications.register(
                AppDescriptor(name=name, quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                              converter=converter(name)),
                lambda person, document, info: None,
            )

        document = {"title": "minutes", "body": "we met"}
        for interaction in interactions:
            for sender in person_ids:
                for receiver in person_ids:
                    outcome = env.exchange(ExchangeRequest(
                        sender, receiver, "writer", "reader", document,
                        interaction=interaction,
                    ))
                    assert outcome.delivered, outcome

        stats = env.resolution.stats()
        # a per-pair route memo would hold people**2 * 2 = 288 entries; the
        # people are read from the KB's index, one entry each, not memoised
        assert stats["verdicts_cached"] == organisations ** 2 * len(interactions)
        assert len(kb.person_index) == people


GHOST = "ghost"  # an endpoint the knowledge base does not know
NOBODY = "nobody"  # known nowhere
DOCUMENT = {"title": "minutes", "body": "we met"}
#: an absolute deadline already past at t=0: refused before routing
EXPIRED = -1.0
#: o0 and o3 share a shard; o1 and o2 each have a shard of their own
TWIN_SHARDS = 8


def wire(env):
    """Register the writer/reader apps and an endpoint for every person."""
    env.world.network.add_node("ws", site="o0")
    for name in ("writer", "reader"):
        env.applications.register(
            AppDescriptor(name=name, quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                          converter=converter(name)),
            lambda person, document, info: None,
        )
    for person_id in (*PEOPLE, GHOST):
        env.register_person(Communicator(person_id, "ws"))


class TestObservedIdentity:
    """Span identity is read from the memo, and observing changes nothing."""

    @pytest.mark.parametrize("shards", [None, 2])
    @settings(max_examples=100, deadline=None)
    @given(script=steps)
    def test_identity_matches_cold_read_and_counts_nothing(self, shards, script):
        warm, cold = build(shards), build(shards, cache=False)
        for op, queries in script:
            for env in (warm, cold):
                kb, cache = env.knowledge_base, env.resolution
                apply(kb, op)
                assert dict(kb.person_index) == rosters(kb), op
                for sender, receiver, interaction in queries:
                    assert cache.route(sender, receiver, interaction) == cache._resolve_route(
                        sender, receiver, interaction
                    ), (op, sender, receiver)
                before = cache.stats()
                for person_id in (*PEOPLE, NOBODY):
                    expected = organisation_of(kb, person_id) or ""
                    assert cache.organisation_of(person_id) == expected, (op, person_id)
                assert cache.stats() == before, op

    @settings(max_examples=100, deadline=None)
    @given(script=steps)
    def test_traced_twin_tags_the_receivers_shard_and_leaves_the_cache_alone(self, script):
        tracer = Tracer()
        traced, untraced = build(TWIN_SHARDS, tracer=tracer), build(TWIN_SHARDS)
        twins = (traced, untraced)
        for env in twins:
            wire(env)
        kb = traced.knowledge_base
        for op, queries in script:
            for env in twins:
                apply(env.knowledge_base, op)
            for index, (sender, receiver, interaction) in enumerate(queries):
                request = ExchangeRequest(
                    sender, receiver, "writer", "reader", DOCUMENT,
                    interaction=interaction, deadline=EXPIRED if index % 2 else None,
                )
                for env in twins:
                    env.exchange(request)
                (span,) = [span for span in tracer.drain() if span.name == "env.exchange"]
                org = organisation_of(kb, receiver)
                if org is None:
                    assert "shard" not in span.tags, (op, request)
                else:
                    assert span.tags["shard"] == kb.shard_of_org(org), (op, request)
                assert traced.resolution.stats() == untraced.resolution.stats(), (op, request)


class TestObservationReadsNoKnowledgeBase:
    def test_warm_observed_exchanges_read_no_kb_state(self):
        pairs = [("p0", "p1"), ("p1", "p0"), ("p0", "p0"), ("p1", GHOST), ("p0", NOBODY)]
        requests = [
            ExchangeRequest(sender, receiver, "writer", "reader", DOCUMENT)
            for sender, receiver in pairs
        ] * 4
        reads = {}
        for traced in (False, True):
            tracer = Tracer() if traced else None
            env = build(2, tracer=tracer)
            wire(env)
            kb = env.knowledge_base
            kb.policies.declare("o0", "o1", {"*"}, symmetric=True)
            for request in requests:  # warm-up
                env.exchange(request)
            read, calls = kb.organisation_of, []

            def counted(person_id, read=read, calls=calls):
                calls.append(person_id)
                return read(person_id)

            kb.organisation_of = counted
            outcomes = [env.exchange(request) for request in requests]
            reads[traced] = len(calls)
            assert {outcome.reason_code for outcome in outcomes} == {
                "delivered", "unknown-receiver"
            }
            if traced:
                spans = [span for span in tracer.drain() if span.name == "env.exchange"]
                assert len(spans) == 2 * len(requests)
        assert reads == {False: 0, True: 0}
