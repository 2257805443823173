"""Tests for the simulated network."""

from __future__ import annotations

import pytest

from repro.sim.network import LAN_LINK, PACKET_OUTCOMES, WAN_LINK, LinkSpec, Network
from repro.sim.rng import SeededRng
from repro.sim.world import World
from repro.util.errors import ConfigurationError, NetworkError


def _packets(world, outcome):
    """Packets that met *outcome*, read from the ``net.packets`` family."""
    return world.metrics.counter(f"net.packets{{outcome={outcome}}}").value


def _collect(node, port="p"):
    received = []
    node.bind(port, lambda packet: received.append(packet))
    return received


class TestTopology:
    def test_duplicate_node_rejected(self, world):
        world.network.add_node("a")
        with pytest.raises(ConfigurationError):
            world.network.add_node("a")

    def test_unknown_node_lookup_raises(self, world):
        with pytest.raises(NetworkError):
            world.network.node("ghost")

    def test_same_site_defaults_to_lan(self, world):
        world.add_site("hq", ["a", "b"])
        assert world.network.link_between("a", "b") is LAN_LINK

    def test_cross_site_defaults_to_wan(self, world):
        world.add_site("hq", ["a"])
        world.add_site("remote", ["b"])
        assert world.network.link_between("a", "b") is WAN_LINK

    def test_explicit_link_overrides_default(self, world):
        world.add_site("hq", ["a", "b"])
        custom = LinkSpec(latency_s=9.0)
        world.network.set_link("a", "b", custom)
        assert world.network.link_between("a", "b") is custom
        assert world.network.link_between("b", "a") is custom


class TestDelivery:
    def test_packet_arrives_with_latency(self, world):
        world.add_site("hq", ["a", "b"])
        received = _collect(world.network.node("b"))
        world.network.send("a", "b", "p", "hello", size_bytes=0)
        world.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].delivered_at == pytest.approx(LAN_LINK.latency_s)

    def test_larger_packets_take_longer(self, world):
        world.add_site("hq", ["a", "b"])
        received = _collect(world.network.node("b"))
        world.network.send("a", "b", "p", "big", size_bytes=10_000_000)
        world.run()
        assert received[0].delivered_at > LAN_LINK.latency_s + 0.5

    def test_unbound_port_counts_drop(self, world):
        world.add_site("hq", ["a", "b"])
        world.network.send("a", "b", "nobody-home", "x")
        world.run()
        assert _packets(world, "no_handler") == 1

    def test_crashed_destination_drops(self, world):
        world.add_site("hq", ["a", "b"])
        _collect(world.network.node("b"))
        world.network.node("b").crash()
        world.network.send("a", "b", "p", "x")
        world.run()
        assert _packets(world, "destination_down") == 1
        assert _packets(world, "delivered") == 0

    def test_crashed_source_drops_immediately(self, world):
        world.add_site("hq", ["a", "b"])
        world.network.node("a").crash()
        world.network.send("a", "b", "p", "x")
        world.run()
        assert _packets(world, "source_down") == 1

    def test_recovered_node_receives_again(self, world):
        world.add_site("hq", ["a", "b"])
        received = _collect(world.network.node("b"))
        world.network.node("b").crash()
        world.network.node("b").recover()
        world.network.send("a", "b", "p", "x")
        world.run()
        assert len(received) == 1

    def test_lossy_link_drops_some(self, world):
        world.add_site("hq", ["a", "b"])
        world.network.set_link("a", "b", LinkSpec(loss=0.5))
        _collect(world.network.node("b"))
        for _ in range(200):
            world.network.send("a", "b", "p", "x")
        world.run()
        delivered = _packets(world, "delivered")
        assert 40 < delivered < 160

    def test_loss_is_reproducible_across_seeds(self):
        outcomes = []
        for _ in range(2):
            world = World(seed=7)
            world.add_site("hq", ["a", "b"])
            world.network.set_link("a", "b", LinkSpec(loss=0.3))
            world.network.node("b").bind("p", lambda packet: None)
            for _ in range(50):
                world.network.send("a", "b", "p", "x")
            world.run()
            outcomes.append(_packets(world, "delivered"))
        assert outcomes[0] == outcomes[1]

    def test_broadcast_reaches_all_others(self, world):
        world.add_site("hq", ["a", "b", "c"])
        rb = _collect(world.network.node("b"))
        rc = _collect(world.network.node("c"))
        count = world.network.broadcast("a", "p", "hi")
        world.run()
        assert count == 2
        assert len(rb) == 1 and len(rc) == 1


class TestPartitions:
    def test_partition_blocks_cross_group(self, world):
        world.add_site("hq", ["a", "b"])
        _collect(world.network.node("b"))
        world.network.partition([["a"], ["b"]])
        world.network.send("a", "b", "p", "x")
        world.run()
        assert _packets(world, "partition") == 1

    def test_partition_allows_same_group(self, world):
        world.add_site("hq", ["a", "b", "c"])
        received = _collect(world.network.node("b"))
        world.network.partition([["a", "b"], ["c"]])
        world.network.send("a", "b", "p", "x")
        world.run()
        assert len(received) == 1

    def test_heal_restores_connectivity(self, world):
        world.add_site("hq", ["a", "b"])
        received = _collect(world.network.node("b"))
        world.network.partition([["a"], ["b"]])
        world.network.heal()
        world.network.send("a", "b", "p", "x")
        world.run()
        assert len(received) == 1

    def test_packet_in_flight_when_partition_forms_is_lost(self, world):
        """A packet crossing the cut when the partition forms is dropped."""
        world.add_site("hq", ["a"])
        world.add_site("far", ["b"])
        _collect(world.network.node("b"))
        world.network.send("a", "b", "p", "x")  # WAN: ~80ms
        world.engine.schedule(0.001, lambda: world.network.partition([["a"], ["b"]]))
        world.run()
        assert _packets(world, "partition") == 1


class TestPacketAccounting:
    def test_registry_stays_bounded_and_every_packet_has_one_fate(self):
        world = World(seed=3)
        world.add_site("hq", ["a", "b", "c", "d"])
        world.add_site("far", ["e"])
        network = world.network
        network.set_link("a", "b", LinkSpec(loss=0.3))
        for name in ("b", "c", "e"):
            network.node(name).bind("p", lambda packet: None)
        network.node("d").crash()
        network.partition([["a", "b", "c", "d"], ["e"]])
        routes = [
            ("a", "b", "p"),  # lossy: delivered or loss
            ("a", "c", "p"),  # delivered
            ("a", "d", "p"),  # destination_down
            ("d", "a", "p"),  # source_down
            ("a", "e", "p"),  # partition
            ("a", "c", "q"),  # no_handler
        ]

        def send(count):
            for index in range(count):
                source, destination, port = routes[index % len(routes)]
                network.send(source, destination, port, "x")
            world.run()
            return world.metrics.snapshot()

        after_10 = send(10)
        after_1000 = send(990)
        for snapshot in (after_10, after_1000):
            counters = snapshot["counters"]
            fates = sum(counters[f"net.packets{{outcome={o}}}"] for o in PACKET_OUTCOMES)
            assert fates == counters["net.sent"]
        assert after_1000["counters"]["net.sent"] == 1000
        assert all(_packets(world, outcome) > 0 for outcome in PACKET_OUTCOMES)
        # no per-packet series: a thousand packets add no key ten did not
        for kind in ("counters", "gauges", "histograms"):
            assert set(after_1000[kind]) == set(after_10[kind])


class TestNodePorts:
    def test_double_bind_rejected(self, world):
        node = world.network.add_node("n")
        node.bind("p", lambda packet: None)
        with pytest.raises(ConfigurationError):
            node.bind("p", lambda packet: None)

    def test_unbind_then_rebind(self, world):
        node = world.network.add_node("n")
        node.bind("p", lambda packet: None)
        node.unbind("p")
        node.bind("p", lambda packet: None)
        assert node.bound_ports() == ["p"]


class TestLinkSpec:
    def test_transmission_delay_includes_bandwidth(self):
        spec = LinkSpec(latency_s=1.0, bandwidth_bps=100.0)
        assert spec.transmission_delay(200, SeededRng(0)) == pytest.approx(3.0)

    def test_jitter_bounded(self):
        spec = LinkSpec(latency_s=1.0, bandwidth_bps=1e9, jitter_s=0.5)
        rng = SeededRng(1)
        for _ in range(50):
            delay = spec.transmission_delay(0, rng)
            assert 1.0 <= delay <= 1.5
