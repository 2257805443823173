"""Tests for the ODP-hosted environment server and the status report."""

from __future__ import annotations

import pytest

from repro.analysis.report import environment_report
from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.server import EnvironmentClient, EnvironmentServer
from repro.environment.transparency import TransparencyProfile
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.org.model import Organisation, Person
from repro.util.errors import BindingError


@pytest.fixture
def hosted(world):
    """An environment hosted on its own server node, plus a remote client."""
    world.add_site("datacenter", ["env-node"])
    world.add_site("office", ["ws-ana", "ws-joan"])
    env = CSCWEnvironment.builder().with_world(world).build()
    org = Organisation("upc", "UPC")
    org.add_person(Person("ana", "Ana", "upc"))
    org.add_person(Person("joan", "Joan", "upc"))
    env.knowledge_base.add_organisation(org)
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("joan", "ws-joan"))
    conferencing = ConferencingSystem()
    messages = MessageSystem()
    conferencing.attach(env)
    messages.attach(env)
    capsule = Capsule(world.network, "env-node")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    server = EnvironmentServer(env)
    ref = server.deploy(capsule)
    client = EnvironmentClient(world, factory, "ws-ana", ref)
    return world, env, client, messages, ref

DOC = {"topic": "t", "entry": "e", "conference": "c", "author": "ana"}


class TestEnvironmentServer:
    def test_remote_exchange_round_trip(self, hosted):
        world, env, client, messages, ref = hosted
        outcome = client.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", DOC
        ))
        assert outcome.delivered and outcome.translated
        assert messages.folder("joan")[0].subject == "t"

    def test_remote_exchange_pays_network_latency(self, hosted):
        world, env, client, messages, ref = hosted
        before = world.now
        client.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", DOC
        ))
        # office <-> datacenter is a WAN round trip (>= 2 x 80 ms).
        assert world.now - before >= 0.16

    def test_remote_profile_respected(self, hosted):
        world, env, client, messages, ref = hosted
        profile = TransparencyProfile.all_on().without("view")
        outcome = client.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", DOC, profile=profile
        ))
        assert not outcome.delivered
        assert "view transparency off" in outcome.reason

    def test_remote_presence_and_pending(self, hosted):
        world, env, client, messages, ref = hosted
        client.person_leaves("joan")
        client.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", DOC
        ))
        assert client.pending_for("joan") == 1
        assert client.person_arrives("joan") == 1
        assert client.pending_for("joan") == 0

    def test_remote_describe(self, hosted):
        world, env, client, messages, ref = hosted
        snapshot = client.describe()
        assert snapshot["organisations"] == ["upc"]
        assert snapshot["integration_cost"] == 2

    def test_environment_service_is_traded(self, hosted):
        world, env, client, messages, ref = hosted
        offer = env.trader.import_one("cscw-environment")
        assert offer.ref == ref

    def test_server_crash_fails_visibly(self, hosted):
        world, env, client, messages, ref = hosted
        world.network.node("env-node").crash()
        with pytest.raises(BindingError, match="timeout"):
            client.exchange(ExchangeRequest(
                "ana", "joan", "conferencing", "message-system", DOC
            ))


class TestEnvironmentReport:
    def test_report_renders_all_sections(self, hosted):
        world, env, client, messages, ref = hosted
        env.create_activity("review", "review", members={"ana": "chair", "joan": "m"})
        env.activities.get("review").start(world.now)
        client.exchange(ExchangeRequest("ana", "joan", "conferencing", "message-system", DOC,
                                        activity_id="review"))
        env.person_leaves("joan")
        client.exchange(ExchangeRequest("ana", "joan", "conferencing", "message-system", DOC,
                                        activity_id="review"))
        report = environment_report(env)
        assert "CSCW environment report: mocca" in report
        assert "conferencing" in report and "message-system" in report
        assert "ana" in report and "joan" in report
        assert "1 queued" in report          # joan's pending delivery
        assert "active" in report            # the review activity
        assert "exchanges" in report
        assert "top talkers: ana (2)" in report

    def test_report_on_empty_environment(self, world):
        env = CSCWEnvironment.builder().with_world(world).build()
        report = environment_report(env)
        assert "0 exchanges" in report
