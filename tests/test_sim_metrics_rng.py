"""Tests for seeded RNG streams and world helpers."""

from __future__ import annotations

import pytest

from repro.sim.rng import SeededRng
from repro.sim.world import World


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(5)
        b = SeededRng(5)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_forks_are_independent(self):
        parent = SeededRng(5)
        child1 = parent.fork("one")
        child2 = parent.fork("two")
        seq1 = [child1.random() for _ in range(5)]
        seq2 = [child2.random() for _ in range(5)]
        assert seq1 != seq2

    def test_fork_determinism(self):
        def forked_values(label):
            return [SeededRng(9).fork(label).random() for _ in range(3)]

        assert forked_values("x") == forked_values("x")

    def test_chance_extremes(self):
        rng = SeededRng(1)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)

    def test_exponential_positive_and_mean_validated(self):
        rng = SeededRng(2)
        assert rng.exponential(10.0) > 0
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_choice_and_sample(self):
        rng = SeededRng(3)
        items = ["a", "b", "c"]
        assert rng.choice(items) in items
        assert sorted(rng.sample(items, 2))[0] in items
        with pytest.raises(ValueError):
            rng.choice([])

    def test_shuffle_returns_new_list(self):
        rng = SeededRng(4)
        original = [1, 2, 3, 4, 5]
        shuffled = rng.shuffle(original)
        assert sorted(shuffled) == original
        assert original == [1, 2, 3, 4, 5]

    def test_uniform_bounds(self):
        rng = SeededRng(6)
        for _ in range(50):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0


class TestWorldHelpers:
    def test_colocated_builds_one_site(self):
        world = World(seed=0)
        nodes = world.colocated(3)
        assert [n.name for n in nodes] == ["ws1", "ws2", "ws3"]
        assert all(n.site == "meeting-room" for n in nodes)

    def test_distributed_builds_sites(self):
        world = World(seed=0)
        sites = world.distributed({"bcn": 2, "bonn": 1})
        assert [n.name for n in sites["bcn"]] == ["bcn-ws1", "bcn-ws2"]
        assert sites["bonn"][0].site == "bonn"

    def test_world_run_and_now(self):
        world = World(seed=0)
        world.engine.schedule(5.0, lambda: None)
        world.run()
        assert world.now == 5.0

    def test_identical_seeds_identical_network_behaviour(self):
        def run_once():
            world = World(seed=99)
            world.add_site("a", ["n1"])
            world.add_site("b", ["n2"])
            received = []
            world.network.node("n2").bind("p", lambda pkt: received.append(pkt.delivered_at))
            for _ in range(5):
                world.network.send("n1", "n2", "p", "x")
            world.run()
            return received

        assert run_once() == run_once()
