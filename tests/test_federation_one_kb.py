"""One organisational model per federation.

A :class:`Federation` holds one knowledge base and every domain
environment reads it.  These tests pin what that buys and what it must
keep:

* structure: one KB object, one ``Person`` per person, one policy
  declaration per domain pair, one white-pages write per write even
  though every domain environment attaches the one sharded directory;
* agreement: under an interleaving of hires, moves, policy declarations
  and revocations, a person's home is the same in the four places that
  record it (``home_of``, the KB, the naming binding, the communicator),
  and every domain's resolution cache, reading the one KB's verdict
  memo, answers what a cold read answers;
* one verdict memo: a verdict derived through one domain is a hit in
  the other, a revoke is seen by the next exchange in every domain, and
  its evictions are counted once per knowledge base;
* a person who already has a home cannot be added a second time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.environment.environment import REASON_DELIVERED, REASON_POLICY, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.org.model import Organisation
from repro.org.policy import (
    INTERACTION_MESSAGE,
    INTERACTION_REALTIME,
    INTERACTION_SERVICE_IMPORT,
)
from repro.sharding.kb import ShardedKnowledgeBase
from repro.sim.world import World
from repro.util.errors import ConfigurationError, NameError_, UnknownObjectError

DOMAINS = ("upc", "gmd", "inria")
PEOPLE = ("ana", "bob", "eva", "ian", "kim")
INTERACTIONS = (INTERACTION_MESSAGE, INTERACTION_SERVICE_IMPORT)


def _bound_in(federation: Federation, person_id: str) -> list[str]:
    """The domains whose own naming binds ``people/<person_id>``."""
    bound = []
    for domain in federation.domains():
        try:
            domain.naming.resolve(f"people/{person_id}")
        except NameError_:
            continue
        bound.append(domain.name)
    return bound


def _holding(federation: Federation, person_id: str) -> list[str]:
    """The domains whose environment holds the person's communicator."""
    return [
        domain.name
        for domain in federation.domains()
        if person_id in domain.env.communicators
    ]


class TestAddPersonWithAHome:
    @pytest.mark.parametrize("target", ["gmd", "upc"])
    def test_second_home_is_refused_and_nothing_changes(self, world, target):
        federation = Federation.partition(world, {"upc": ["ana"], "gmd": ["bob"]})
        with pytest.raises(ConfigurationError, match="move_person"):
            federation.add_person("ana", target)
        assert federation.home_of("ana") == "upc"
        assert federation.knowledge_base.organisation_of("ana") == "upc"
        assert _bound_in(federation, "ana") == ["upc"]
        assert _holding(federation, "ana") == ["upc"]
        assert federation.describe()["people"] == {"ana": "upc", "bob": "gmd"}


# one step of the interleaving: (operation, person, domain, other domain,
# allowed interactions)
steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "move", "declare", "revoke")),
        st.sampled_from(PEOPLE),
        st.sampled_from(DOMAINS),
        st.sampled_from(DOMAINS),
        st.sets(st.sampled_from(INTERACTIONS)),
    ),
    min_size=1,
    max_size=25,
)


def _apply(federation: Federation, step: tuple) -> None:
    operation, person, domain, other, allowed = step
    kb = federation.knowledge_base
    homed = person in kb.person_index
    if operation == "add":
        if homed:
            with pytest.raises(ConfigurationError):
                federation.add_person(person, domain)
        else:
            federation.add_person(person, domain)
    elif operation == "move":
        if homed:
            federation.move_person(person, domain)
        else:
            with pytest.raises(UnknownObjectError):
                federation.move_person(person, domain)
    elif operation == "declare":
        federation.declare_policy(domain, other, set(allowed), symmetric=False)
    else:
        kb.policies.revoke(domain, other)


def _assert_agreement(federation: Federation) -> None:
    kb = federation.knowledge_base
    for person in PEOPLE:
        try:
            home = federation.home_of(person)
        except UnknownObjectError:
            with pytest.raises(UnknownObjectError):
                kb.organisation_of(person)
            assert _bound_in(federation, person) == []
            assert _holding(federation, person) == []
            continue
        assert kb.organisation_of(person) == home
        assert _bound_in(federation, person) == [home]
        assert _holding(federation, person) == [home]
    for domain in federation.domains():
        cache = domain.env.resolution
        for sender in (*PEOPLE, "ghost"):
            for receiver in (*PEOPLE, "ghost"):
                for interaction in INTERACTIONS:
                    assert cache.route(sender, receiver, interaction) == (
                        cache._resolve_route(sender, receiver, interaction)
                    ), (domain.name, sender, receiver, interaction)


class TestInterleaving:
    @pytest.mark.parametrize("shards", [None, 2])
    @seed(1992)
    @settings(max_examples=60, deadline=None)
    @given(script=steps)
    def test_every_record_of_a_home_agrees(self, shards, script):
        federation = Federation(World(seed=3), shards=shards)
        for name in DOMAINS:
            federation.add_domain(name)
        _assert_agreement(federation)
        for step in script:
            _apply(federation, step)
            _assert_agreement(federation)


class TestStructure:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_partition_holds_one_model(self, world, n, monkeypatch):
        assignment = {f"d{i}": [f"d{i}-p{j}" for j in range(3)] for i in range(n)}
        federation = Federation(world)
        for name in assignment:
            federation.add_domain(name)
        kb = federation.knowledge_base
        declarations = []
        declare = kb.policies.declare
        monkeypatch.setattr(
            kb.policies,
            "declare",
            lambda *args, **kwargs: declarations.append(args) or declare(*args, **kwargs),
        )
        federation.open_policies()
        assert len(declarations) == n * (n - 1) // 2
        for name, people in assignment.items():
            for person in people:
                federation.add_person(person, name)
        assert all(domain.env.knowledge_base is kb for domain in federation.domains())
        persons = [person for org in kb.organisations() for person in org.persons()]
        assert sorted(person.person_id for person in persons) == sorted(
            person for people in assignment.values() for person in people
        )
        assert len({id(person) for person in persons}) == len(persons)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_each_white_pages_write_counts_once(self, world, n):
        metrics = MetricsRegistry()
        assignment = {f"d{i}": [f"d{i}-p{j}" for j in range(3)] for i in range(n)}
        federation = Federation.partition(world, assignment, shards=2, metrics=metrics)
        kb = federation.knowledge_base
        assert isinstance(kb, ShardedKnowledgeBase)
        federation.move_person("d0-p0", "d1")
        writes = sum(kb.directory.writes_by_shard.values())
        # one org entry per domain, one person entry per hire, and the
        # move's delete and re-add
        assert writes == n + 3 * n + 2
        counted = sum(
            value
            for series, value in metrics.snapshot()["counters"].items()
            if series.startswith("directory.ops") and "op=writes" in series
        )
        assert counted == writes

    def test_organisation_inside_a_domain_keeps_its_people_homed_there(self, world):
        federation = Federation.partition(world, {"hq": ["ana", "cy"], "gmd": ["bob"]})
        kb = federation.knowledge_base
        kb.add_organisation(Organisation("lab", "LAB"))
        kb.move_person("cy", "lab")
        # "lab" is not a domain: cy stays homed where their communicator is
        assert federation.home_of("cy") == "hq"
        federation.move_person("cy", "gmd")
        assert federation.home_of("cy") == kb.organisation_of("cy") == "gmd"
        assert _holding(federation, "cy") == ["gmd"]


NOTE = {"title": "minutes", "body": "we met"}


def _two_domains(world, metrics: MetricsRegistry) -> Federation:
    """ana@upc and bob@gmd, open policies, one app, one metrics registry."""
    federation = Federation.partition(
        world, {"upc": ["ana"], "gmd": ["bob"]}, metrics=metrics
    )
    federation.register_application(
        AppDescriptor(
            name="notes",
            quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
            converter=FormatConverter(
                "note",
                lambda document: make_common("note", document["title"], document["body"]),
                lambda common: {"title": common["title"], "body": common["body"]},
            ),
        ),
        lambda person, document, info: None,
    )
    return federation


def _send(federation: Federation, sender: str, receiver: str,
          interaction: str = INTERACTION_MESSAGE) -> str:
    return federation.federated_exchange(ExchangeRequest(
        sender, receiver, "notes", "notes", NOTE, interaction=interaction
    )).outcome.reason_code


class TestOneVerdictMemo:
    def test_a_verdict_derived_in_one_domain_is_a_hit_in_the_other(self, world):
        federation = _two_domains(world, MetricsRegistry())
        upc, gmd = (federation.domain(name).env.resolution for name in ("upc", "gmd"))
        upc_before, gmd_before = upc.stats(), gmd.stats()
        gmd.route("ana", "bob", INTERACTION_MESSAGE)
        assert gmd.stats()["route_misses"] == gmd_before["route_misses"] + 1
        upc.route("ana", "bob", INTERACTION_MESSAGE)
        assert upc.stats()["route_misses"] == upc_before["route_misses"]
        assert upc.stats()["route_hits"] == upc_before["route_hits"] + 1
        # the relay's two admissions, at upc and at gmd, both hit
        assert _send(federation, "ana", "bob") == REASON_DELIVERED
        assert (upc.stats()["route_misses"], gmd.stats()["route_misses"]) == (
            upc_before["route_misses"], gmd_before["route_misses"] + 1
        )
        assert upc.stats()["verdicts_cached"] == gmd.stats()["verdicts_cached"] == 1

    def test_a_revoke_is_seen_by_the_next_exchange_in_every_domain(self, world):
        federation = _two_domains(world, MetricsRegistry())
        for sender, receiver in (("ana", "bob"), ("bob", "ana")):
            assert _send(federation, sender, receiver) == REASON_DELIVERED
        federation.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        for sender, receiver in (("ana", "bob"), ("bob", "ana")):
            assert _send(federation, sender, receiver) == REASON_POLICY
        for domain in federation.domains():
            outcome = domain.env.exchange(ExchangeRequest("ana", "bob", "notes", "notes", NOTE))
            assert outcome.reason_code == REASON_POLICY, domain.name

    def test_a_revoke_counts_its_evictions_once_per_knowledge_base(self, world):
        metrics = MetricsRegistry()
        federation = _two_domains(world, metrics)
        routes = (
            ("ana", "bob", INTERACTION_MESSAGE),
            ("ana", "bob", INTERACTION_REALTIME),
            ("bob", "ana", INTERACTION_MESSAGE),
        )
        for sender, receiver, interaction in routes:
            assert _send(federation, sender, receiver, interaction) == REASON_DELIVERED

        def counted() -> tuple[int, int]:
            counters = metrics.snapshot()["counters"]
            return counters["env.cache.evicted"], counters["env.cache.invalidations"]

        evicted, invalidations = counted()
        federation.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        assert counted() == (evicted + len(routes), invalidations + 1)
        for domain in federation.domains():
            assert domain.env.resolution.stats()["verdicts_cached"] == 0
