"""What a delivery leaves behind: memory bounded by the population.

The environment keeps no record per exchange (its communication log
folds each one into aggregates), so warm exchanges over a fixed set of
routes to an application that keeps nothing retain nothing: the heap's
growth after 5,000 exchanges is within a few kB of its growth after 500.
A stock application keeps exactly one record per delivery, its own: the
message system files one memo and keeps no generic ``Delivery`` beside it.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.apps.base import Delivery
from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import Q_DIFFERENT_TIME_DIFFERENT_PLACE, AppDescriptor
from repro.information.interchange import FormatConverter, make_common
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World

PEOPLE = (("upc", "ana"), ("upc", "joan"), ("gmd", "wolf"), ("gmd", "tom"))
DOC = {"topic": "ODP", "entry": "will it help?", "author": "ana", "conference": "c"}
#: allowed difference between the growth after 5,000 and after 500 exchanges
SLACK_BYTES = 4096


def make_env() -> tuple[CSCWEnvironment, ConferencingSystem, MessageSystem]:
    """Two organisations of two people each under an open message policy,
    with the stock conferencing and message-system applications and a
    ``sink`` application whose callback keeps nothing."""
    world = World(seed=0)
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id in ("upc", "gmd"):
        organisation = Organisation(org_id, org_id.upper())
        for home, person_id in PEOPLE:
            if home == org_id:
                organisation.add_person(Person(person_id, person_id.title(), org_id))
                world.network.add_node(f"ws-{person_id}", site=org_id)
                env.register_person(Communicator(person_id, f"ws-{person_id}"))
        env.knowledge_base.add_organisation(organisation)
    env.knowledge_base.policies.declare("upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True)
    conferencing, messages = ConferencingSystem(), MessageSystem()
    conferencing.attach(env)
    messages.attach(env)
    converter = FormatConverter(
        "sink-note",
        to_common=lambda d: make_common("note", d.get("title", ""), d.get("text", "")),
        from_common=lambda c: {"title": c["title"], "text": c["body"]},
    )
    sink = AppDescriptor("sink", [Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter)
    env.register_application(sink, lambda person, document, info: None)
    return env, conferencing, messages


def routes(receiver_app: str) -> list[ExchangeRequest]:
    """Every intra- and cross-organisation route between the four people."""
    return [
        ExchangeRequest(sender, receiver, "conferencing", receiver_app, DOC)
        for _, sender in PEOPLE
        for _, receiver in PEOPLE
        if sender != receiver
    ]


def run(env: CSCWEnvironment, requests: list[ExchangeRequest], count: int) -> None:
    for index in range(count):
        assert env.exchange(requests[index % len(requests)]).delivered


def traced_growth(env: CSCWEnvironment, requests: list[ExchangeRequest],
                  marks: tuple[int, ...]) -> list[int]:
    """Bytes the traced heap has grown by after each mark (cumulative
    exchange counts), each read after a full collection."""
    growth = []
    gc.collect()
    tracemalloc.start()
    try:
        start, done = tracemalloc.get_traced_memory()[0], 0
        for mark in marks:
            run(env, requests, mark - done)
            done = mark
            gc.collect()
            growth.append(tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    return growth


def test_warm_exchanges_to_an_app_that_keeps_nothing_retain_nothing():
    env, _, _ = make_env()
    requests = routes("sink")
    run(env, requests, 200)  # warm: resolution memo, plan cache, log aggregates
    after_500, after_5000 = traced_growth(env, requests, (500, 5000))
    assert after_5000 - after_500 <= SLACK_BYTES, (after_500, after_5000)
    assert len(env.communication_log) == 5200
    assert len(env.communication_log.traffic_matrix()) == len(requests)


def test_each_message_system_delivery_leaves_one_memo_and_no_delivery():
    env, _, messages = make_env()
    gc.collect()
    before = sum(isinstance(obj, Delivery) for obj in gc.get_objects())
    run(env, routes("message-system"), 48)
    memos = [memo for _, person_id in PEOPLE for memo in messages.folder(person_id)]
    assert len(memos) == messages.received_count == 48
    assert {memo.subject for memo in memos} == {"ODP"}
    assert sum(isinstance(obj, Delivery) for obj in gc.get_objects()) == before
    assert not hasattr(messages, "inbox")
