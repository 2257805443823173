"""The exchange's records and its tracer, as callers see them.

* An untraced exchange never calls its tracer; a traced one still runs
  inside an ``env.exchange`` span and tags it.
* ``ExchangeOutcome``, ``TranslationResult`` and ``FederatedOutcome``
  are immutable, hashable named tuples whose record API is
  ``_fields``/``_asdict``/``_replace``.
* An outcome that travels through ``EnvironmentServer`` /
  ``EnvironmentClient`` equals the in-process one, field for field.
"""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_VIEW_OPAQUE,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.server import EnvironmentClient, EnvironmentServer
from repro.environment.transparency import TransparencyProfile
from repro.federation.federation import FederatedOutcome, Hop
from repro.information.interchange import TranslationResult
from repro.obs import Tracer
from repro.obs.tracing import NullTracer
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World

DOC = {"topic": "ODP", "entry": "will it help?", "author": "ana", "conference": "c"}
REQUEST = ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)


class SpyTracer(NullTracer):
    """A disabled tracer that records every span it is asked for."""

    __slots__ = ("opened",)

    def __init__(self) -> None:
        super().__init__()
        self.opened: list[str] = []

    def span(self, name, **tags):
        self.opened.append(name)
        return super().span(name, **tags)


def make_env(world: World, tracer: Tracer | None = None) -> CSCWEnvironment:
    builder = CSCWEnvironment.builder().with_world(world)
    env = (builder.with_tracer(tracer) if tracer is not None else builder).build()
    for org_id, person_id in (("upc", "ana"), ("gmd", "wolf")):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(person_id, person_id.title(), org_id))
        env.knowledge_base.add_organisation(organisation)
        world.add_site(org_id, [f"ws-{person_id}"])
        env.register_person(Communicator(person_id, f"ws-{person_id}"))
    env.knowledge_base.policies.declare("upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True)
    ConferencingSystem().attach(env)
    MessageSystem().attach(env)
    return env


class TestTracer:
    def test_an_untraced_exchange_never_calls_its_tracer(self):
        env = make_env(World(seed=0))
        spy = env.tracer = SpyTracer()
        assert env.exchange(REQUEST).delivered
        assert env.exchange_many([REQUEST, REQUEST])[1].delivered
        assert spy.opened == []

    def test_a_traced_exchange_runs_in_a_tagged_span(self):
        tracer = Tracer()
        env = make_env(World(seed=0), tracer)
        outcome = env.exchange(REQUEST)
        (span,) = [span for span in tracer.finished() if span.name == "env.exchange"]
        assert outcome.trace_id == span.trace_id != ""
        assert span.tags == {
            "delivered": True, "mode": "synchronous", "reason_code": REASON_DELIVERED,
            "domain": env.name, "sender": "ana", "receiver": "wolf",
            "sender_app": "conferencing", "receiver_app": "message-system",
        }

    def test_a_traced_batch_tags_its_counts(self):
        tracer = Tracer()
        env = make_env(World(seed=0), tracer)
        blind = ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system", DOC,
            profile=TransparencyProfile.all_on().without("view"),
        )
        outcomes = env.exchange_many([REQUEST, blind])
        (span,) = [span for span in tracer.finished() if span.name == "env.exchange_many"]
        assert [outcome.trace_id for outcome in outcomes] == [span.trace_id] * 2
        assert span.tags == {"domain": env.name, "batch": 2, "delivered": 1, "failed": 1}


def records():
    exchange = ExchangeOutcome(True, "synchronous", handled=("view",), size_bytes=10)
    translation = TranslationResult({"title": "t"}, "memo", "note", 0.9, 2)
    federated = FederatedOutcome(exchange, "upc", "gmd", (Hop("upc", "origin", 0.0),), 1, 0.2)
    return [exchange, translation, federated]


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
class TestRecords:
    def test_is_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_is_hashable_and_equal_records_hash_equal(self, record):
        twin = type(record)(**record._asdict())
        assert twin == record and hash(twin) == hash(record)
        assert twin._replace(**{record._fields[1]: "other"}) != record

    def test_is_a_named_tuple(self, record):
        assert isinstance(record, tuple)
        assert list(record._asdict()) == list(record._fields)


def test_a_federated_outcome_reads_through_to_its_exchange_outcome():
    federated = records()[2]
    assert (federated.delivered, federated.mode, federated.reason_code) == (
        True, "synchronous", "",
    )
    assert federated.cross_domain


def hosted_client(world: World, env: CSCWEnvironment) -> EnvironmentClient:
    world.add_site("datacenter", ["env-node"])
    capsule = Capsule(world.network, "env-node")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    ref = EnvironmentServer(env).deploy(capsule)
    return EnvironmentClient(world, factory, "ws-ana", ref)


@pytest.mark.parametrize("profile", [None, TransparencyProfile.all_on().without("view")],
                         ids=["delivered", "refused"])
def test_a_remote_outcome_equals_the_in_process_one(profile):
    world = World(seed=0)
    env = make_env(world)
    client = hosted_client(world, env)
    request = ExchangeRequest(
        "ana", "wolf", "conferencing", "message-system", DOC, profile=profile
    )
    local = env.exchange(request)
    remote = client.exchange(request)
    assert type(remote) is ExchangeOutcome
    assert remote._asdict() == local._asdict()
    assert remote == local
    assert local.reason_code == (REASON_DELIVERED if profile is None else REASON_VIEW_OPAQUE)
