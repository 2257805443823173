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
  and every domain's resolution cache, fed by the one KB's listeners,
  answers what a cold read answers;
* a person who already has a home cannot be added a second time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.federation.federation import Federation
from repro.obs.metrics import MetricsRegistry
from repro.org.model import Organisation
from repro.org.policy import INTERACTION_MESSAGE, INTERACTION_SERVICE_IMPORT
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
