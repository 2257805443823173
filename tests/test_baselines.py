"""Tests for the closed-world baseline (Figure 2) vs the environment."""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.message_system import MessageSystem
from repro.apps.workflow import WorkflowSystem
from repro.baselines.closed import ClosedWorld
from repro.util.errors import ConfigurationError


@pytest.fixture
def closed() -> ClosedWorld:
    world = ClosedWorld()
    world.add_app(ConferencingSystem())
    world.add_app(MessageSystem())
    world.add_app(WorkflowSystem())
    return world


class TestClosedWorld:
    def test_no_gateway_no_delivery(self, closed):
        delivered = closed.send(
            "conferencing", "message-system", "wolf", {"topic": "t", "entry": "e"}
        )
        assert not delivered
        assert closed.exchanges_failed == 1

    def test_gateway_enables_one_direction(self, closed):
        closed.build_gateway("conferencing", "message-system")
        assert closed.send(
            "conferencing", "message-system", "wolf",
            {"topic": "t", "entry": "e", "conference": "c", "author": "ana"},
        )
        memos = closed.app("message-system").folder("wolf")
        assert memos[0].subject == "t"
        # The reverse direction still fails.
        assert not closed.send("message-system", "conferencing", "ana",
                               {"subject": "s", "text": "x", "fields": {}})

    def test_same_format_needs_no_gateway(self, closed):
        other = ConferencingSystem(instance_name="conferencing-2")
        closed.add_app(other)
        assert closed.send(
            "conferencing", "conferencing-2", "ana",
            {"topic": "t", "entry": "e", "conference": "c", "author": "a"},
        )

    def test_full_integration_is_quadratic(self, closed):
        built = closed.build_all_gateways()
        assert built == 3 * 2
        assert closed.gateway_count() == 6
        assert closed.interop_coverage() == 1.0

    def test_coverage_grows_with_gateways(self, closed):
        assert closed.interop_coverage() == 0.0
        closed.build_gateway("conferencing", "message-system")
        assert closed.interop_coverage() == pytest.approx(1 / 6)

    def test_duplicate_gateway_rejected(self, closed):
        closed.build_gateway("conferencing", "message-system")
        with pytest.raises(ConfigurationError):
            closed.build_gateway("conferencing", "message-system")

    def test_open_app_rejected(self, world):
        from repro.communication.model import Communicator
        from repro.environment.environment import CSCWEnvironment

        env = CSCWEnvironment.builder().with_world(world).build()
        app = DocumentProcessor()
        app.attach(env)
        closed = ClosedWorld()
        with pytest.raises(ConfigurationError):
            closed.add_app(app)

    def test_duplicate_app_rejected(self, closed):
        with pytest.raises(ConfigurationError):
            closed.add_app(ConferencingSystem())


class TestClosedVsOpenShape:
    """The headline E2 shape at small N, verified as a unit test."""

    def test_integration_cost_shapes(self, world):
        from repro.communication.model import Communicator
        from repro.environment.environment import CSCWEnvironment

        apps = [ConferencingSystem(), MessageSystem(), WorkflowSystem(), DocumentProcessor()]
        closed = ClosedWorld()
        for app in apps:
            closed.add_app(app)
        closed_cost = closed.build_all_gateways()

        env = CSCWEnvironment.builder().with_world(world).build()
        open_apps = [ConferencingSystem(), MessageSystem(), WorkflowSystem(), DocumentProcessor()]
        for app in open_apps:
            app.attach(env)
        open_cost = env.integration_cost()

        n = len(apps)
        assert closed_cost == n * (n - 1)
        assert open_cost == n
        assert env.interop_coverage() == 1.0
