"""A committed, machine-independent budget for sharded white-pages writes.

Wall time depends on the host; the number of Python-level function
calls a knowledge-base write makes does not.  This module counts the
``call`` events ``sys.setprofile`` sees during one warm ``move_person``
across shards and one warm ``add_person`` on a four-shard
:class:`~repro.sharding.ShardedKnowledgeBase`, and holds them to
:data:`MOVE_CALL_BUDGET` and :data:`ADD_CALL_BUDGET`.

The counts cover the whole write: the base knowledge base's roster and
index update, building the person's DN once from the organisation's
shared parsed name, the placement memo, the routed directory operations
and the DIT's own add/delete with its schema check and change record.
Newer Python versions inline some calls (PEP 709 comprehensions), so
each bound is an upper one.

Beside the counts, the routed operations each write makes are pinned:
a move is an ``exists`` and a ``delete`` on the old shard and an
``exists`` and an ``add`` on the new one; a hire is an ``exists`` and an
``add``.

A federation's domains all read one knowledge base and its one
route-verdict memo, so a write's cost does not grow with the domain
count: one warm policy declaration and one warm move make the same
number of calls at 2 domains as at 32.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.federation import Federation
from repro.org.model import Organisation, Person
from repro.sharding import ShardedKnowledgeBase
from repro.sim.world import World

#: Python-level calls of one warm cross-shard ``move_person`` and one warm
#: ``add_person`` below.  If a change adds calls on purpose, raise the
#: budget it exceeds to the new count and name the added calls in
#: CHANGES.md; if it removes calls, lower it, so the budget keeps guarding.
MOVE_CALL_BUDGET = 76
ADD_CALL_BUDGET = 43


def make_kb() -> ShardedKnowledgeBase:
    """Eight orgs with one person each; org1 lives on kb-dsa-0 and org6
    on kb-dsa-1, and a first move each way warms every memo."""
    kb = ShardedKnowledgeBase(n_shards=4)
    for index in range(8):
        kb.add_organisation(Organisation(f"org{index}", f"ORG {index}"))
        kb.add_person(Person(f"u{index}", f"User {index}", f"org{index}"))
    kb.move_person("u1", "org6")
    kb.move_person("u1", "org1")
    kb.add_person(Person("warm", "Warm Hire", "org2"))
    return kb


def count_calls(write, *args, **kwargs) -> Counter:
    """One write under a profiler counting Python calls per (file, function)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        write(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


def routed(kb: ShardedKnowledgeBase) -> tuple[dict, dict]:
    return dict(kb.directory.reads_by_shard), dict(kb.directory.writes_by_shard)


def grown(before: dict, after: dict) -> dict:
    return {shard: after[shard] - before[shard] for shard in after if after[shard] != before[shard]}


def assert_within(calls: Counter, budget: int, name: str) -> None:
    total = sum(calls.values())
    listing = "\n".join(f"  {count} {where}" for where, count in calls.most_common())
    assert total <= budget, (
        f"one warm write made {total} Python calls, over {name} = {budget}; "
        f"if the new calls are intended, raise {name} and say why in CHANGES.md:\n"
        f"{listing}"
    )


def test_a_warm_cross_shard_move_stays_within_its_call_budget():
    kb = make_kb()
    assert (kb.shard_of_org("org1"), kb.shard_of_org("org6")) == ("kb-dsa-0", "kb-dsa-1")
    reads, writes = routed(kb)
    calls = count_calls(kb.move_person, "u1", "org6")
    after_reads, after_writes = routed(kb)
    assert_within(calls, MOVE_CALL_BUDGET, "MOVE_CALL_BUDGET")
    # exists + delete on the old shard, exists + add on the new one
    assert grown(reads, after_reads) == {"kb-dsa-0": 1, "kb-dsa-1": 1}
    assert grown(writes, after_writes) == {"kb-dsa-0": 1, "kb-dsa-1": 1}
    assert kb.resolve_person_entry("u1").name.key == "cn=u1,o=org6,c=es"
    assert not kb.directory.exists(kb.person_dn("u1", "org1"))


def test_a_warm_hire_stays_within_its_call_budget():
    kb = make_kb()
    hire = Person("new", "New Hire", "org2")
    reads, writes = routed(kb)
    calls = count_calls(kb.add_person, hire)
    after_reads, after_writes = routed(kb)
    assert_within(calls, ADD_CALL_BUDGET, "ADD_CALL_BUDGET")
    owner = kb.shard_of_org("org2")
    assert grown(reads, after_reads) == grown(writes, after_writes) == {owner: 1}
    assert kb.resolve_person_entry("new").first("sn") == "Hire"


def test_a_write_enters_each_layer_once():
    """The calls the budgets are made of: one DN built per person, one
    placement per routed operation, one schema check per added entry."""
    kb = make_kb()
    move = count_calls(kb.move_person, "u1", "org6")
    hire = count_calls(kb.add_person, Person("new", "New Hire", "org2"))
    for calls, built, routed_ops in ((move, 2, 4), (hire, 1, 2)):
        assert calls["names.py:dn"] == 0, calls
        assert calls["names.py:child"] == built, calls
        assert calls["ring.py:shard_for"] == routed_ops, calls
        assert calls["ring.py:stable_hash"] == 0, calls
        assert calls["schema.py:validate_entry"] == 1, calls
        assert calls["knowledge_base.py:find_person"] <= 1, calls


def federation_write_calls(domains: int) -> tuple[Counter, Counter]:
    """One warm policy declaration and one warm move on the KB of a
    federation of *domains* domains with one person each."""
    federation = Federation.partition(
        World(seed=0), {f"d{index}": [f"d{index}-p0"] for index in range(domains)}
    )
    kb = federation.knowledge_base
    kb.policies.declare("d0", "d1", {"*"}, symmetric=True)
    kb.move_person("d0-p0", "d1")
    kb.move_person("d0-p0", "d0")
    declare = count_calls(kb.policies.declare, "d0", "d1", {"*"}, symmetric=True)
    move = count_calls(kb.move_person, "d0-p0", "d1")
    return declare, move


@pytest.mark.parametrize("write", ["declare", "move"])
def test_a_federation_kb_write_costs_the_same_at_2_and_32_domains(write):
    position = ("declare", "move").index(write)
    small = federation_write_calls(2)[position]
    large = federation_write_calls(32)[position]
    assert sum(large.values()) == sum(small.values()), (
        f"one warm {write} made {sum(small.values())} calls at 2 domains and "
        f"{sum(large.values())} at 32:\n{small}\n{large}"
    )
