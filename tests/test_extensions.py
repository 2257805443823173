"""Tests for the extension features built beyond the first-pass system:

* environment store-and-forward delivery queues (time transparency's
  "different time" half done honestly),
* trader dynamic properties (ODP dynamic trading),
* directory alias entries with dereferencing,
* QoS-monitored channels.
"""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.directory.dit import DirectoryInformationTree
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import ComputationalObject, InterfaceRef, signature
from repro.odp.qos import QoSMonitor, QoSSpec
from repro.odp.trader import Constraint, Trader
from repro.org.model import Organisation, Person
from repro.util.errors import DirectoryError


@pytest.fixture
def env_and_apps(world):
    env = CSCWEnvironment.builder().with_world(world).build()
    org = Organisation("upc", "UPC")
    org.add_person(Person("ana", "Ana", "upc"))
    org.add_person(Person("joan", "Joan", "upc"))
    env.knowledge_base.add_organisation(org)
    world.add_site("bcn", ["ws1", "ws2"])
    env.register_person(Communicator("ana", "ws1"))
    env.register_person(Communicator("joan", "ws2"))
    conferencing = ConferencingSystem()
    messages = MessageSystem()
    conferencing.attach(env)
    messages.attach(env)
    return env, conferencing, messages


@pytest.fixture
def env(env_and_apps) -> CSCWEnvironment:
    return env_and_apps[0]


class TestStoreAndForwardDelivery:
    DOC = {"topic": "t", "entry": "e", "conference": "c", "author": "ana"}

    def test_absent_receiver_queues(self, env):
        env.person_leaves("joan")
        outcome = env.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", self.DOC
        ))
        assert outcome.delivered and outcome.mode == "asynchronous"
        assert env.pending_for("joan") == 1

    def test_arrival_flushes_queue(self, env):
        env.person_leaves("joan")
        env.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", self.DOC
        ))
        env.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", self.DOC
        ))
        flushed = env.person_arrives("joan")
        assert flushed == 2
        assert env.pending_for("joan") == 0

    def test_flushed_documents_reach_the_app(self, env_and_apps):
        env, conferencing, messages = env_and_apps
        env.person_leaves("joan")
        env.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", self.DOC
        ))
        assert messages.folder("joan") == []  # nothing until joan returns
        env.person_arrives("joan")
        memos = messages.folder("joan")
        assert len(memos) == 1
        assert memos[0].subject == "t"

    def test_present_receiver_delivers_immediately(self, env):
        outcome = env.exchange(ExchangeRequest(
            "ana", "joan", "conferencing", "message-system", self.DOC
        ))
        assert outcome.mode == "synchronous"
        assert env.pending_for("joan") == 0

    def test_arrival_with_empty_queue(self, env):
        assert env.person_arrives("joan") == 0


class TestDynamicTradingProperties:
    def test_dynamic_property_evaluated_per_import(self):
        trader = Trader("t")
        load = {"value": 0}
        trader.export(
            "compute", InterfaceRef("n1", "o", "i"),
            {"load": lambda: load["value"]},
        )
        trader.export("compute", InterfaceRef("n2", "o", "i"), {"load": 5})
        first = trader.import_one("compute", preference="min:load")
        assert first.ref.node == "n1"
        load["value"] = 10
        second = trader.import_one("compute", preference="min:load")
        assert second.ref.node == "n2"

    def test_dynamic_property_in_constraints(self):
        trader = Trader("t")
        queue = {"depth": 3}
        trader.export(
            "printing", InterfaceRef("n1", "o", "i"),
            {"queue": lambda: queue["depth"]},
        )
        matched = trader.import_("printing", [Constraint("queue", "<=", 5)], max_offers=5)
        assert len(matched) == 1
        queue["depth"] = 9
        from repro.util.errors import NoOfferError

        with pytest.raises(NoOfferError):
            trader.import_("printing", [Constraint("queue", "<=", 5)])

    def test_evaluated_properties_helper(self):
        offer = Trader("t").export(
            "svc", InterfaceRef("n", "o", "i"), {"static": 1, "dynamic": lambda: 2}
        )
        assert offer.evaluated_properties() == {"static": 1, "dynamic": 2}


class TestDirectoryAliases:
    @pytest.fixture
    def dit(self) -> DirectoryInformationTree:
        dit = DirectoryInformationTree()
        dit.add("o=UPC", {"objectclass": ["organization"]})
        dit.add("cn=Ana,o=UPC", {"objectclass": ["person"], "sn": ["Lopez"]})
        dit.add(
            "cn=Secretary,o=UPC",
            {"objectclass": ["alias"], "aliasedobjectname": ["cn=Ana,o=UPC"]},
        )
        return dit

    def test_read_dereferences(self, dit):
        entry = dit.read("cn=Secretary,o=UPC")
        assert entry.first("sn") == "Lopez"

    def test_read_raw_alias(self, dit):
        entry = dit.read("cn=Secretary,o=UPC", dereference=False)
        assert entry.first("aliasedobjectname") == "cn=Ana,o=UPC"

    def test_alias_chain(self, dit):
        dit.add(
            "cn=Deputy,o=UPC",
            {"objectclass": ["alias"], "aliasedobjectname": ["cn=Secretary,o=UPC"]},
        )
        assert dit.read("cn=Deputy,o=UPC").first("sn") == "Lopez"

    def test_alias_loop_detected(self, dit):
        dit.add(
            "cn=LoopA,o=UPC",
            {"objectclass": ["alias"], "aliasedobjectname": ["cn=LoopB,o=UPC"]},
        )
        dit.add(
            "cn=LoopB,o=UPC",
            {"objectclass": ["alias"], "aliasedobjectname": ["cn=LoopA,o=UPC"]},
        )
        with pytest.raises(DirectoryError, match="alias chain"):
            dit.read("cn=LoopA,o=UPC")

    def test_modify_touches_the_alias_not_the_target(self, dit):
        dit.modify("cn=Secretary,o=UPC", add={"description": ["front desk"]})
        assert dit.read("cn=Secretary,o=UPC", dereference=False).get("description") == [
            "front desk"
        ]
        assert dit.read("cn=Ana,o=UPC").get("description") == []

    def test_search_does_not_dereference(self, dit):
        hits = dit.search("", where=None)
        names = {str(e.name) for e in hits}
        assert "cn=Secretary,o=UPC" in names


class TestQoSChannels:
    def test_monitor_observes_latency(self, world):
        world.add_site("hq", ["server", "client"])
        capsule = Capsule(world.network, "server")
        factory = BindingFactory(world.network)
        factory.register_capsule(capsule)
        obj = ComputationalObject("svc")
        obj.offer(signature("svc", "ping"), {"ping": lambda args: "pong"})
        refs = capsule.deploy(obj)
        monitor = QoSMonitor(QoSSpec(max_latency_s=1.0), name="svc")
        channel = factory.bind("client", refs["svc"], qos_monitor=monitor)
        for _ in range(3):
            channel.call(world, "ping")
        assert monitor.attempts == 3
        assert monitor.in_conformance()

    def test_monitor_detects_latency_violation(self, world):
        from repro.sim.network import LinkSpec

        world.add_site("hq", ["server", "client"])
        world.network.set_link("client", "server", LinkSpec(latency_s=2.0))
        capsule = Capsule(world.network, "server")
        factory = BindingFactory(world.network)
        factory.register_capsule(capsule)
        obj = ComputationalObject("svc")
        obj.offer(signature("svc", "ping"), {"ping": lambda args: "pong"})
        refs = capsule.deploy(obj)
        monitor = QoSMonitor(QoSSpec(max_latency_s=0.5), name="svc")
        channel = factory.bind("client", refs["svc"], timeout_s=10.0, qos_monitor=monitor)
        channel.call(world, "ping")
        assert monitor.latency_violations == 1
        assert not monitor.in_conformance()

    def test_monitor_counts_failures(self, world):
        from repro.util.errors import BindingError

        world.add_site("hq", ["server", "client"])
        capsule = Capsule(world.network, "server")
        factory = BindingFactory(world.network)
        factory.register_capsule(capsule)
        obj = ComputationalObject("svc")
        obj.offer(signature("svc", "ping"), {"ping": lambda args: "pong"})
        refs = capsule.deploy(obj)
        world.network.node("server").crash()
        monitor = QoSMonitor(QoSSpec(min_reliability=0.99), name="svc")
        channel = factory.bind("client", refs["svc"], timeout_s=0.5, qos_monitor=monitor)
        with pytest.raises(BindingError):
            channel.call(world, "ping")
        assert monitor.reliability() == 0.0
