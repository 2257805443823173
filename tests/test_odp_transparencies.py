"""Tests for distribution transparencies as binder interceptors."""

from __future__ import annotations

import pytest

from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import ComputationalObject, InterfaceRef, signature
from repro.odp.trader import Trader
from repro.odp.transparencies import (
    FailureTransparency,
    LocationTransparency,
    MigrationTransparency,
    Relocator,
    ReplicationTransparency,
    TransparencySelection,
)
from repro.util.errors import BindingError, ConfigurationError


def _service(object_id: str, reply: str) -> ComputationalObject:
    obj = ComputationalObject(object_id)
    obj.offer(signature("svc", "who"), {"who": lambda args: reply})
    return obj


@pytest.fixture
def cluster(world):
    world.add_site("hq", ["n1", "n2", "n3", "client"])
    capsules = {name: Capsule(world.network, name) for name in ("n1", "n2", "n3")}
    factory = BindingFactory(world.network)
    for capsule in capsules.values():
        factory.register_capsule(capsule)
    return world, capsules, factory


class TestMigrationTransparency:
    def test_stale_ref_rewritten(self, cluster):
        world, capsules, factory = cluster
        relocator = Relocator()
        old_refs = capsules["n1"].deploy(_service("mobile", "hi"))
        relocator.record(old_refs["svc"])
        new_refs = capsules["n1"].migrate_to("mobile", capsules["n2"])
        relocator.moved(old_refs["svc"], new_refs["svc"])
        channel = factory.bind("client", old_refs["svc"], [MigrationTransparency(relocator)])
        assert channel.call(world, "who") == "hi"
        assert relocator.relocations == 1

    def test_without_transparency_stale_ref_fails(self, cluster):
        world, capsules, factory = cluster
        old_refs = capsules["n1"].deploy(_service("mobile", "hi"))
        capsules["n1"].migrate_to("mobile", capsules["n2"])
        channel = factory.bind("client", old_refs["svc"])
        with pytest.raises(BindingError):
            channel.call(world, "who")

    def test_migration_during_use_recovers_on_failure(self, cluster):
        world, capsules, factory = cluster
        relocator = Relocator()
        refs = capsules["n1"].deploy(_service("mobile", "hi"))
        relocator.record(refs["svc"])
        channel = factory.bind("client", refs["svc"], [MigrationTransparency(relocator)])
        # First call succeeds at n1.
        assert channel.call(world, "who") == "hi"
        # Move the object; the relocator learns the new location.
        new_refs = capsules["n1"].migrate_to("mobile", capsules["n2"])
        relocator.moved(refs["svc"], new_refs["svc"])
        assert channel.call(world, "who") == "hi"

    def test_migration_in_flight_is_retried_at_the_new_node(self, cluster):
        """The object moves while an invocation is on its way: the old node
        answers with an error, and ``on_failure`` re-resolves the reference
        and retries the invocation at the new node."""
        world, capsules, factory = cluster
        relocator = Relocator()
        refs = capsules["n1"].deploy(_service("mobile", "hi"))
        relocator.record(refs["svc"])

        class Spy:
            """Records where each transmission goes, and declines failures."""

            def __init__(self) -> None:
                self.sent: list[tuple[str, int | None]] = []

            def before_invoke(self, invocation):
                self.sent.append(
                    (invocation.ref.node, invocation.annotations.get("migration_retries"))
                )
                return invocation

            def on_failure(self, invocation, retry):
                return False

        spy = Spy()
        channel = factory.bind("client", refs["svc"], [MigrationTransparency(relocator), spy])
        replies: list = []
        errors: list = []
        channel.invoke("who", on_reply=replies.append, on_error=errors.append)
        # the request is on the wire to n1 when the object leaves it
        new_refs = capsules["n1"].migrate_to("mobile", capsules["n2"])
        relocator.moved(refs["svc"], new_refs["svc"])
        world.run()
        assert (replies, errors) == (["hi"], [])
        assert spy.sent == [("n1", None), ("n2", 1)]
        assert (capsules["n1"].dispatched, capsules["n2"].dispatched) == (0, 1)

    def test_moved_must_keep_identity(self):
        relocator = Relocator()
        with pytest.raises(ConfigurationError):
            relocator.moved(InterfaceRef("a", "x", "i"), InterfaceRef("b", "y", "i"))


class TestLocationTransparency:
    def test_resolves_service_type_via_trader(self, cluster):
        world, capsules, factory = cluster
        trader = Trader("t")
        refs = capsules["n1"].deploy(_service("printer", "printed"))
        trader.export("printing", refs["svc"])
        location = LocationTransparency(trader, "printing")
        channel = factory.bind("client", location.placeholder_ref(), [location])
        assert channel.call(world, "who") == "printed"

    def test_fails_over_to_other_offer_when_first_dies(self, cluster):
        world, capsules, factory = cluster
        trader = Trader("t")
        refs1 = capsules["n1"].deploy(_service("printer-a", "from-n1"))
        refs2 = capsules["n2"].deploy(_service("printer-b", "from-n2"))
        trader.export("printing", refs1["svc"])
        trader.export("printing", refs2["svc"])
        world.network.node("n1").crash()
        location = LocationTransparency(trader, "printing")
        channel = factory.bind("client", location.placeholder_ref(), [location], timeout_s=0.5)
        assert channel.call(world, "who") == "from-n2"


class TestReplicationTransparency:
    def test_prefers_first_replica(self, cluster):
        world, capsules, factory = cluster
        refs1 = capsules["n1"].deploy(_service("rep-a", "primary"))
        refs2 = capsules["n2"].deploy(_service("rep-b", "backup"))
        replication = ReplicationTransparency([refs1["svc"], refs2["svc"]])
        channel = factory.bind("client", refs1["svc"], [replication])
        assert channel.call(world, "who") == "primary"
        assert replication.failovers == 0

    def test_fails_over_to_backup(self, cluster):
        world, capsules, factory = cluster
        refs1 = capsules["n1"].deploy(_service("rep-a", "primary"))
        refs2 = capsules["n2"].deploy(_service("rep-b", "backup"))
        world.network.node("n1").crash()
        replication = ReplicationTransparency([refs1["svc"], refs2["svc"]])
        channel = factory.bind("client", refs1["svc"], [replication], timeout_s=0.5)
        assert channel.call(world, "who") == "backup"
        assert replication.failovers == 1

    def test_all_replicas_dead_fails(self, cluster):
        world, capsules, factory = cluster
        refs1 = capsules["n1"].deploy(_service("rep-a", "primary"))
        refs2 = capsules["n2"].deploy(_service("rep-b", "backup"))
        world.network.node("n1").crash()
        world.network.node("n2").crash()
        replication = ReplicationTransparency([refs1["svc"], refs2["svc"]])
        channel = factory.bind("client", refs1["svc"], [replication], timeout_s=0.5)
        with pytest.raises(BindingError):
            channel.call(world, "who")

    def test_empty_replica_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationTransparency([])


class TestFailureTransparency:
    def test_retries_through_transient_outage(self, cluster):
        world, capsules, factory = cluster
        refs = capsules["n1"].deploy(_service("flaky", "ok"))
        # n1 is down for 1.5s; retries (timeout 1s) should eventually land.
        world.failures.crash_at("n1", at=0.0, duration=1.5)
        failure = FailureTransparency(max_retries=5)
        channel = factory.bind("client", refs["svc"], [failure], timeout_s=1.0)
        assert channel.call(world, "who") == "ok"
        assert failure.retries >= 1

    def test_gives_up_after_bound(self, cluster):
        world, capsules, factory = cluster
        refs = capsules["n1"].deploy(_service("dead", "never"))
        world.network.node("n1").crash()
        failure = FailureTransparency(max_retries=2)
        channel = factory.bind("client", refs["svc"], [failure], timeout_s=0.2)
        with pytest.raises(BindingError):
            channel.call(world, "who")
        assert failure.retries == 2


class TestTransparencySelection:
    def test_enable_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            TransparencySelection().enable("invisibility")

    def test_build_order_and_contents(self):
        relocator = Relocator()
        trader = Trader("t")
        trader.export("svc", InterfaceRef("n", "o", "svc"))
        selection = TransparencySelection(
            trader=trader,
            service_type="svc",
            relocator=relocator,
            replicas=[InterfaceRef("n", "o", "svc")],
        )
        for name in ("access", "location", "migration", "replication", "failure"):
            selection.enable(name)
        chain = selection.build()
        names = [type(i).__name__ for i in chain]
        assert names == [
            "ReplicationTransparency",
            "MigrationTransparency",
            "LocationTransparency",
            "FailureTransparency",
            "AccessTransparency",
        ]

    def test_disable_removes(self):
        selection = TransparencySelection()
        selection.enable("failure").disable("failure")
        assert selection.build() == []

    def test_migration_requires_relocator(self):
        selection = TransparencySelection()
        selection.enable("migration")
        with pytest.raises(ConfigurationError):
            selection.build()

    def test_location_requires_trader(self):
        selection = TransparencySelection()
        selection.enable("location")
        with pytest.raises(ConfigurationError):
            selection.build()

    def test_selection_is_user_tailorable_per_binding(self, cluster):
        """Two bindings to the same service can select different transparencies."""
        world, capsules, factory = cluster
        refs = capsules["n1"].deploy(_service("shared", "ok"))
        plain = factory.bind("client", refs["svc"])
        tolerant = factory.bind(
            "client", refs["svc"], TransparencySelection({"failure"}).build(), timeout_s=0.5
        )
        world.failures.crash_at("n1", at=0.0, duration=0.7)
        with pytest.raises(BindingError):
            plain.call(world, "who")
        assert tolerant.call(world, "who") == "ok"
