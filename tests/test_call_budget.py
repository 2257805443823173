"""A committed, machine-independent budget for the warm local exchange.

Wall time depends on the host; the number of Python-level function
calls one exchange makes does not.  This module counts the ``call``
events ``sys.setprofile`` sees during one warm, untraced, translated,
cross-organisation ``env.exchange`` on a small built world (two
organisations, the stock conferencing and message-system applications)
and holds it to :data:`CALL_BUDGET`.

The count covers the whole path: the pipeline and its admission, the
resolution cache, the converters, the size computation, the bus, the
view registry, the communication log and the receiving application's
own delivery code.  Newer Python versions inline some calls (PEP 709
comprehensions), so the bound is an upper one.

A second budget, :data:`FEDERATED_CALL_BUDGET`, holds one warm, untraced,
translated, cross-domain ``federated_exchange`` on a two-domain
federation: the origin's stages, the gateway relay with its byte charge,
the transport and engine steps that carry it, and the target's pipeline.

It also pins what ``_admit`` does today with an unregistered receiving
application: the pipeline raises ``NotRegisteredError`` instead of
refusing, so a batch that reaches such a run stops there with its
earlier outcomes lost.  Whether that becomes a refusal is an open
decision about raising targets; until it is taken, a change of this
behaviour must be deliberate.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import REASON_DELIVERED, CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World
from repro.util.errors import NotRegisteredError

#: Python-level calls of one warm exchange below.  If a change adds calls
#: on purpose, raise this to the new count and name the added calls in
#: CHANGES.md; if it removes calls, lower it, so the budget keeps guarding.
CALL_BUDGET = 30
#: Python-level calls of one warm cross-domain federated exchange, kept
#: like :data:`CALL_BUDGET`
FEDERATED_CALL_BUDGET = 123

DOC = {"topic": "ODP", "entry": "will it help?", "author": "ana", "conference": "c"}
REQUEST = ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)


def make_env() -> CSCWEnvironment:
    """ana@upc and wolf@gmd under an open message policy, with the stock
    conferencing (sender) and message-system (receiver) applications."""
    world = World(seed=0)
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id, person_id in (("upc", "ana"), ("gmd", "wolf")):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(person_id, person_id.title(), org_id))
        env.knowledge_base.add_organisation(organisation)
        world.network.add_node(f"ws-{person_id}", site=org_id)
        env.register_person(Communicator(person_id, f"ws-{person_id}"))
    env.knowledge_base.policies.declare("upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True)
    ConferencingSystem().attach(env)
    MessageSystem().attach(env)
    return env


def make_federation() -> Federation:
    """ana homed in domain upc, wolf in gmd, and two applications with
    distinct formats (app0 sends, app1 receives)."""
    federation = Federation.partition(World(seed=0), {"upc": ["ana"], "gmd": ["wolf"]})
    for index in (0, 1):
        key = f"fmt{index}"
        converter = FormatConverter(
            key,
            lambda document, key=key: make_common(
                "note", document[f"{key}-title"], document[f"{key}-body"]
            ),
            lambda common, key=key: {f"{key}-title": common["title"], f"{key}-body": common["body"]},
        )
        federation.register_application(
            AppDescriptor(f"app{index}", [Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter),
            lambda person, document, info: None,
        )
    return federation


FEDERATED_REQUEST = ExchangeRequest(
    "ana", "wolf", "app0", "app1", {"fmt0-title": "minutes", "fmt0-body": "agenda"}
)


def count_calls(exchange, request) -> tuple[Counter, object]:
    """``exchange(request)`` under a profiler counting Python calls per
    (file, function)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        outcome = exchange(request)
    finally:
        sys.setprofile(None)
    return calls, outcome


def assert_within(calls: Counter, budget: int, name: str) -> None:
    total = sum(calls.values())
    listing = "\n".join(f"  {count} {call}" for call, count in calls.most_common())
    assert total <= budget, (
        f"one warm exchange made {total} Python calls, over {name} = {budget}; "
        f"if the new calls are intended, raise {name} and say why in CHANGES.md:\n"
        f"{listing}"
    )


def test_a_warm_exchange_stays_within_its_call_budget():
    env = make_env()
    for _ in range(2):  # warm: resolution memo, plan cache, inboxes
        assert env.exchange(REQUEST).delivered
    calls, outcome = count_calls(env.exchange, REQUEST)
    assert outcome.reason_code == REASON_DELIVERED
    assert outcome.translated and outcome.handled == ("organisation", "view")
    assert not env.tracer.enabled
    assert_within(calls, CALL_BUDGET, "CALL_BUDGET")


def test_a_warm_cross_domain_federated_exchange_stays_within_its_call_budget():
    federation = make_federation()
    for _ in range(2):  # warm: homes, route verdicts, plans, the gateway link
        assert federation.federated_exchange(FEDERATED_REQUEST).delivered
    calls, federated = count_calls(federation.federated_exchange, FEDERATED_REQUEST)
    outcome = federated.outcome
    assert (federated.origin, federated.target, federated.attempts) == ("upc", "gmd", 1)
    assert outcome.reason_code == REASON_DELIVERED and outcome.translated
    assert not any(domain.env.tracer.enabled for domain in federation.domains())
    assert_within(calls, FEDERATED_CALL_BUDGET, "FEDERATED_CALL_BUDGET")


def test_a_warm_exchange_calls_each_layer_once():
    """The calls the budget is made of: one per layer boundary, and one
    callback lookup per run (the run binds the receiving app's callback)."""
    env = make_env()
    env.exchange(REQUEST)
    calls, _ = count_calls(env.exchange, REQUEST)
    for name in (
        "environment.py:exchange", "environment.py:_admit", "environment.py:_translate",
        "interchange.py:translate", "serialization.py:document_size", "events.py:publish",
        "transparency.py:render", "base.py:deliver", "model.py:record",
    ):
        assert calls[name] == 1, (name, calls)
    assert calls["registry.py:callback"] == 1


def test_an_unregistered_receiving_app_raises_out_of_a_single_exchange():
    env = make_env()
    with pytest.raises(NotRegisteredError, match="'nope' is not registered"):
        env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "nope", DOC))
    assert (env.exchanges_attempted, env.exchanges_failed) == (1, 0)


def test_an_unregistered_receiving_app_raises_out_of_a_batch_after_earlier_runs():
    """Today's behaviour, pinned: the first run delivers, the second run's
    admission raises, and the batch has counted both as attempted and
    neither as failed."""
    env = make_env()
    bad = ExchangeRequest("ana", "wolf", "conferencing", "nope", DOC)
    with pytest.raises(NotRegisteredError, match="'nope' is not registered"):
        env.exchange_many([REQUEST, bad])
    assert (env.exchanges_attempted, env.exchanges_failed) == (2, 0)
    assert env.communication_log.traffic_matrix() == {("ana", "wolf"): 1}
