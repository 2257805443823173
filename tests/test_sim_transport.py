"""Tests for request/reply."""

from __future__ import annotations

import pytest

from repro.sim.transport import RequestReply


class TestRequestReply:
    def test_round_trip(self, world):
        world.add_site("hq", ["client", "server"])
        server = RequestReply(world.network, "server")
        server.serve("echo", lambda body: {"echoed": body})
        client = RequestReply(world.network, "client")
        replies = []
        client.request("server", "echo", "ping", replies.append)
        world.run()
        assert replies == [{"echoed": "ping"}]
        assert client.replies_received == 1

    def test_unknown_operation_returns_error(self, world):
        world.add_site("hq", ["client", "server"])
        RequestReply(world.network, "server")
        client = RequestReply(world.network, "client")
        replies = []
        client.request("server", "nope", {}, replies.append)
        world.run()
        assert "error" in replies[0]

    def test_handler_exception_travels_back(self, world):
        world.add_site("hq", ["client", "server"])
        server = RequestReply(world.network, "server")

        def boom(body):
            raise ValueError("bad input")

        server.serve("boom", boom)
        client = RequestReply(world.network, "client")
        replies = []
        client.request("server", "boom", {}, replies.append)
        world.run()
        assert "ValueError" in replies[0]["error"]

    def test_timeout_on_crashed_server(self, world):
        world.add_site("hq", ["client", "server"])
        RequestReply(world.network, "server")
        world.network.node("server").crash()
        client = RequestReply(world.network, "client")
        timeouts = []
        client.request("server", "echo", {}, lambda r: None, timeout_s=1.0, on_timeout=lambda: timeouts.append(1))
        world.run()
        assert timeouts == [1]
        assert client.timeouts == 1

    def test_duplicate_serve_rejected(self, world):
        from repro.util.errors import ConfigurationError

        world.add_site("hq", ["s"])
        server = RequestReply(world.network, "s")
        server.serve("op", lambda b: b)
        with pytest.raises(ConfigurationError):
            server.serve("op", lambda b: b)

    def test_concurrent_requests_correlated(self, world):
        world.add_site("hq", ["client", "server"])
        server = RequestReply(world.network, "server")
        server.serve("double", lambda body: body * 2)
        client = RequestReply(world.network, "client")
        replies = {}
        for i in range(10):
            client.request("server", "double", i, lambda r, i=i: replies.__setitem__(i, r))
        world.run()
        assert replies == {i: i * 2 for i in range(10)}


class TestFailureInjector:
    def test_crash_window(self, world):
        world.add_site("hq", ["a", "b"])
        received = []
        world.network.node("b").bind("p", lambda pkt: received.append(world.now))
        world.failures.crash_at("b", at=1.0, duration=2.0)
        # Before, during and after the outage.
        world.engine.schedule(0.5, lambda: world.network.send("a", "b", "p", "x"))
        world.engine.schedule(2.0, lambda: world.network.send("a", "b", "p", "x"))
        world.engine.schedule(4.0, lambda: world.network.send("a", "b", "p", "x"))
        world.run()
        assert len(received) == 2

    def test_partition_window(self, world):
        world.add_site("hq", ["a", "b"])
        received = []
        world.network.node("b").bind("p", lambda pkt: received.append(world.now))
        world.failures.partition_at([["a"], ["b"]], at=1.0, duration=2.0)
        world.engine.schedule(1.5, lambda: world.network.send("a", "b", "p", "x"))
        world.engine.schedule(4.0, lambda: world.network.send("a", "b", "p", "x"))
        world.run()
        assert len(received) == 1

    def test_random_crashes_reproducible(self):
        from repro.sim.world import World

        def outage_signature(seed):
            world = World(seed=seed)
            world.add_site("hq", ["a", "b", "c"])
            planned = world.failures.random_crashes(horizon=100.0, rate_per_node=0.05, mean_downtime=5.0)
            return [(o.node, round(o.start, 6)) for o in planned]

        assert outage_signature(3) == outage_signature(3)
