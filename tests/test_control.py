"""Tests for repro.control: actions, hysteresis, end-to-end stability.

The control loop is only useful if it is *stable*: actions must be
idempotent and exactly reversible, hysteresis must stop a flapping
signal from ping-ponging the configuration, and a federation with the
loop enabled must still satisfy every conservation invariant the chaos
soak checks without it.
"""

from __future__ import annotations

import pytest

from repro.control import (
    BoostRelayBudget,
    ControlPlane,
    ControlPolicy,
    DrainGateway,
    RebalanceShadowing,
    TightenShed,
)
from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_OVERLOAD,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.obs import MetricsRegistry, RatioSLO, SLOEngine
from repro.obs.events import KIND_CONTROL_ACTION, KIND_CONTROL_REVERT, EventLog
from repro.org.model import Organisation, Person
from repro.sim.rng import SeededRng
from repro.sim.world import World
from repro.util.errors import ConfigurationError


class FakeGateway:
    """Duck-typed gateway exposing exactly the control-plane surface."""

    def __init__(self) -> None:
        self.retries = 0
        self.in_flight = 0
        self.drained = False
        self.max_attempts = 4

    def drain(self) -> None:
        self.drained = True

    def undrain(self) -> None:
        self.drained = False

    def set_attempt_budget(self, max_attempts: int) -> None:
        self.max_attempts = max_attempts


class FakeEnvironment:
    def __init__(self, shed_limit) -> None:
        self.shed_limit = shed_limit

    def set_shed_limit(self, limit) -> None:
        self.shed_limit = limit


class FakeAgreement:
    def __init__(self, period_s: float = 2.0) -> None:
        self.period_s = period_s

    def set_period(self, period_s: float) -> None:
        self.period_s = period_s


class TestControlActions:
    def test_apply_and_revert_are_idempotent_edges(self):
        gateway = FakeGateway()
        action = DrainGateway("gw", gateway)
        assert not action.applied and action.last_transition == float("-inf")
        assert action.apply(1.0) is True
        assert gateway.drained and action.applied
        assert action.apply(2.0) is False, "second apply must be a no-op"
        assert action.last_transition == 1.0
        assert action.revert(3.0) is True
        assert not gateway.drained and not action.applied
        assert action.revert(4.0) is False, "revert of idle action is a no-op"
        assert (action.applies, action.reverts) == (1, 1)

    def test_boost_restores_saved_budget(self):
        gateway = FakeGateway()
        action = BoostRelayBudget("gw", gateway, extra_attempts=3)
        action.apply(0.0)
        assert gateway.max_attempts == 7
        action.revert(1.0)
        assert gateway.max_attempts == 4
        with pytest.raises(ConfigurationError):
            BoostRelayBudget("gw", gateway, extra_attempts=0)

    def test_tighten_shed_declines_without_a_limit(self):
        action = TightenShed("env", FakeEnvironment(shed_limit=None))
        assert action.apply(0.0) is False, "no shed policy: action declines"
        assert not action.applied
        env = FakeEnvironment(shed_limit=10)
        action = TightenShed("env", env, factor=0.5)
        action.apply(0.0)
        assert env.shed_limit == 5
        action.revert(1.0)
        assert env.shed_limit == 10
        with pytest.raises(ConfigurationError):
            TightenShed("env", env, factor=1.0)

    def test_tighten_shed_sheds_then_reverts_on_a_built_environment(self):
        world = World(seed=3)
        env = CSCWEnvironment.builder().with_world(world).with_shed_limit(4).build()
        org = Organisation("upc", "UPC")
        for person in ("ana", "joan"):
            org.add_person(Person(person, person.title(), "upc"))
        env.knowledge_base.add_organisation(org)
        world.add_site("bcn", ["w1", "w2"])
        env.register_person(Communicator("ana", "w1"))
        env.register_person(Communicator("joan", "w2"))
        env.register_application(
            AppDescriptor(name="app0", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                          converter=FormatConverter(
                              "fmt", lambda doc: make_common("note", "t", "b"),
                              lambda common: {"title": common["title"]})),
            lambda person, document, info: None,
        )
        env.person_leaves("joan")

        def send() -> str:
            return env.exchange(ExchangeRequest(
                "ana", "joan", "app0", "app0", {"title": "t"}
            )).reason_code

        action = TightenShed("env", env, factor=0.5)
        assert action.apply(0.0) is True
        assert env.shed_limit == 2
        assert [send() for _ in range(3)] == [
            REASON_DELIVERED, REASON_DELIVERED, REASON_OVERLOAD,
        ]
        assert action.revert(1.0) is True
        assert env.shed_limit == 4
        assert send() == REASON_DELIVERED
        assert env.pending_for("joan") == 3

    def test_rebalance_shadowing_restores_period(self):
        agreement = FakeAgreement(period_s=2.0)
        action = RebalanceShadowing("sh", agreement, slowdown=4.0)
        action.apply(0.0)
        assert agreement.period_s == 8.0
        action.revert(1.0)
        assert agreement.period_s == 2.0
        with pytest.raises(ConfigurationError):
            RebalanceShadowing("sh", agreement, slowdown=1.0)


class TestControlPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ControlPolicy(tick_s=0.0)
        with pytest.raises(ConfigurationError):
            ControlPolicy(cooldown_s=-1.0)
        with pytest.raises(ConfigurationError):
            ControlPolicy(trend_window_s=0.0)

    def test_duplicate_gateway_rejected(self, world):
        plane = ControlPlane(world.engine)
        plane.manage_gateway("gw", FakeGateway())
        with pytest.raises(ConfigurationError):
            plane.manage_gateway("gw", FakeGateway())


class TestHysteresis:
    """A signal flapping faster than the cool-down must not ping-pong."""

    def test_flapping_signal_is_suppressed_within_cooldown(self):
        world = World(seed=3)
        policy = ControlPolicy(tick_s=0.25, cooldown_s=5.0)
        metrics = MetricsRegistry()
        plane = ControlPlane(world.engine, policy=policy, metrics=metrics)
        gateway = FakeGateway()
        plane.manage_gateway("gw", gateway)
        plane.start()
        drain = plane._gateways["gw"].drain
        # Flap the degradation signal every tick for 4 simulated seconds:
        # retry surge on even ticks, clean-and-idle on odd ticks.
        flip = {"on": True}

        def flap() -> None:
            if flip["on"]:
                gateway.retries += 1
                gateway.in_flight = 1
            else:
                gateway.in_flight = 0
            flip["on"] = not flip["on"]

        from repro.sim.engine import PeriodicTask

        PeriodicTask(world.engine, 0.25, flap).start()
        world.run_for(4.0)
        # One real transition (the initial drain); every later flip inside
        # the cool-down was suppressed, not executed.
        assert gateway.drained
        assert (drain.applies, drain.reverts) == (1, 0)
        assert plane.suppressed > 0
        assert metrics.snapshot()["counters"]["control.suppressed"] > 0
        # After the cool-down expires with a calm signal, exactly one
        # revert happens — no burst of queued transitions.
        gateway.in_flight = 0
        world.run_for(3.0)
        assert not gateway.drained
        assert (drain.applies, drain.reverts) == (1, 1)

    def test_transitions_respect_cooldown_spacing(self):
        world = World(seed=4)
        policy = ControlPolicy(tick_s=0.25, cooldown_s=2.0)
        plane = ControlPlane(world.engine, policy=policy)
        gateway = FakeGateway()
        plane.manage_gateway("gw", gateway)
        plane.start()
        drain = plane._gateways["gw"].drain
        transitions = []
        original = plane._transition

        def spy(action, want_applied, reason, now):
            before = (action.applies, action.reverts)
            original(action, want_applied, reason, now)
            if (action.applies, action.reverts) != before:
                transitions.append(now)

        plane._transition = spy
        # Permanent flap: surge every tick, recovery claim every other.
        def churn() -> None:
            gateway.retries += 1
            gateway.in_flight = 1 - gateway.in_flight

        from repro.sim.engine import PeriodicTask

        PeriodicTask(world.engine, 0.25, churn).start()
        world.run_for(10.0)
        assert transitions, "the signal must have driven transitions"
        gaps = [b - a for a, b in zip(transitions, transitions[1:])]
        assert all(gap >= policy.cooldown_s for gap in gaps), (
            f"transitions of {drain.target} violated the cool-down: {gaps}"
        )


class TestBurnDrivenActions:
    def test_one_burn_one_action_one_reversal(self):
        """The closed loop: one burn edge tightens the shed limit once,
        and one clean window reverts it exactly, both traced."""
        world = World(seed=5)
        metrics = MetricsRegistry()
        events = EventLog()
        slo = SLOEngine(world.engine, metrics, sample_period_s=0.5).declare(
            RatioSLO("delivery", "good", "total", target=0.9, window_s=4.0)
        )
        slo.start()
        env = FakeEnvironment(shed_limit=10)
        from repro.obs.tracing import Tracer

        plane = ControlPlane(
            world.engine,
            policy=ControlPolicy(tick_s=0.25, cooldown_s=1.0),
            metrics=metrics,
            events=events,
            tracer=Tracer(),
        )
        plane.watch_slo(slo)
        plane.manage_environment("env", env)
        plane.start()
        # Burn: nothing but errors for a window's worth of samples.
        for _ in range(4):
            metrics.inc("total")
            world.run_for(0.5)
        assert plane.burning == {"delivery"}
        assert env.shed_limit == 5, "burn must tighten the shed limit"
        # Recovery: a clean stretch longer than the window clears the
        # alert, and the action reverts exactly once.
        for _ in range(12):
            metrics.inc("good")
            metrics.inc("total")
            world.run_for(0.5)
        assert plane.burning == set()
        assert env.shed_limit == 10, "recovery must restore the shed limit"
        assert plane.actions_applied == 1 and plane.actions_reverted == 1
        assert plane.fully_reverted()
        applies = events.events(kind=KIND_CONTROL_ACTION)
        reverts = events.events(kind=KIND_CONTROL_REVERT)
        assert len(applies) == 1 and len(reverts) == 1
        assert applies[0].attrs["action"] == "tighten-shed"
        assert applies[0].attrs["reason"] == "slo-burn:delivery"
        assert reverts[0].attrs["reason"] == "burn-cleared"
        assert applies[0].trace_id and reverts[0].trace_id


class TestFederationControl:
    """End-to-end: attach_control on a live federation under chaos."""

    def _federation(self, seed: int = 11):
        from repro.environment.registry import (
            AppDescriptor,
            Q_DIFFERENT_TIME_DIFFERENT_PLACE,
        )
        from repro.federation.federation import Federation

        world = World(seed=seed)
        federation = Federation.partition(
            world,
            {name: [f"p-{name}"] for name in ("d0", "d1", "d2")},
            metrics=MetricsRegistry(),
        )
        federation.register_application(
            AppDescriptor(name="app", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
            lambda person, doc, info: None,
        )
        federation.start_health_checks(period_s=1.0, timeout_s=0.5)
        return world, federation

    def test_actions_fully_reverse_after_recovery(self):
        from repro.resilience import ChaosRunner

        world, federation = self._federation()
        plane = federation.attach_control()
        plane.start()
        assert federation.control is plane
        gateway = federation.domain("d0").gateway_to("d1")
        budgets = {
            f"{d.name}->{peer}": d.gateway_to(peer).max_attempts
            for d in federation.domains()
            for peer in ("d0", "d1", "d2")
            if peer != d.name
        }
        chaos = ChaosRunner(world, name="recovery")
        chaos.flap_link(
            federation.domain("d0").node,
            federation.domain("d1").node,
            start=2.0, down_s=6.0, up_s=5.0, flaps=1,
        )
        for index in range(10):
            federation.federated_exchange(ExchangeRequest(
                "p-d0", "p-d1", "app", "app", {"n": index}
            ))
            world.run_for(1.0)
        assert plane.actions_applied > 0, "the outage must have driven actions"
        drain = plane._gateways["d0->d1"].drain
        assert drain.applies >= 1, "the degrading gateway must have been drained"
        # Let the link heal, trends go clean, and cool-downs expire.
        world.run_for(30.0)
        assert plane.fully_reverted(), plane.describe()
        assert not gateway.drained
        assert drain.applies == drain.reverts, "every drain must be undone"
        for domain in federation.domains():
            for peer in ("d0", "d1", "d2"):
                if peer != domain.name:
                    key = f"{domain.name}->{peer}"
                    assert domain.gateway_to(peer).max_attempts == budgets[key], (
                        f"attempt budget of {key} not restored"
                    )

    def test_attach_control_manages_every_gateway(self):
        _, federation = self._federation()
        plane = federation.attach_control()
        managed = {action["target"] for action in plane.describe()["actions"]}
        for domain in federation.domains():
            for peer in ("d0", "d1", "d2"):
                if peer != domain.name:
                    assert f"{domain.name}->{peer}" in managed


class TestFederatedChaosSoakWithControl:
    """The tests/test_soak_chaos.py conservation soak, control enabled.

    Same 4 domains, same flapping links and crash storm, same seeds —
    the adaptive loop must not break a single conservation invariant:
    every exchange gets exactly one outcome, delivered exchanges land in
    exactly one inbox, failures are reason-coded, nothing raises.
    """

    @pytest.mark.parametrize("seed", [21, 22])
    def test_conservation_holds_with_control_enabled(self, seed):
        from repro.environment.environment import REASON_DEADLINE_EXCEEDED
        from repro.environment.registry import (
            AppDescriptor,
            Q_DIFFERENT_TIME_DIFFERENT_PLACE,
        )
        from repro.federation.federation import (
            REASON_GATEWAY_DEAD_LETTER,
            Federation,
        )
        from repro.resilience import ChaosRunner

        world = World(seed=seed)
        names = ["upc", "gmd", "inria", "mcc"]
        metrics = MetricsRegistry()
        federation = Federation.partition(
            world, {name: [f"p-{name}"] for name in names}, metrics=metrics
        )
        inbox: list = []
        federation.register_application(
            AppDescriptor(name="soak", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
            lambda person, doc, info: inbox.append((person, doc["n"])),
        )
        federation.start_health_checks(period_s=1.0, timeout_s=0.5)
        slo = SLOEngine(world.engine, metrics, sample_period_s=1.0).declare(
            RatioSLO(
                "federated-delivery",
                good="env.federation.delivered",
                total="env.federation.exchanges",
                target=0.99,
                window_s=10.0,
            )
        )
        slo.start()
        federation.attach_control(slo=slo).start()
        gateway_nodes = {name: federation.domain(name).node for name in names}
        chaos = ChaosRunner(world, name=f"soak-{seed}")
        chaos.flap_link(
            gateway_nodes["upc"], gateway_nodes["gmd"],
            start=2.0, down_s=9.0, up_s=2.0, flaps=4,
        )
        chaos.flap_link(
            gateway_nodes["inria"], gateway_nodes["mcc"],
            start=3.0, down_s=9.0, up_s=2.0, flaps=4,
        )
        chaos.crash_storm(
            [gateway_nodes["gmd"], gateway_nodes["inria"]],
            start=12.0, downtime_s=9.0, stagger_s=12.0, jitter_s=1.0,
        )
        rng = SeededRng(seed + 7)
        outcomes = []
        for index in range(30):
            sender = names[index % 4]
            receiver = names[(index + 1 + index % 3) % 4]
            deadline = world.now + 2.0 if index % 4 == 0 else None
            outcomes.append(
                federation.federated_exchange(ExchangeRequest(
                    f"p-{sender}", f"p-{receiver}", "soak", "soak",
                    {"n": index}, deadline=deadline,
                ))
            )
            world.run_for(rng.uniform(0.1, 1.5))
        world.run_for(30.0)  # drain: every in-flight relay settles
        assert len(outcomes) == 30
        delivered = [o for o in outcomes if o.delivered]
        failed = [o for o in outcomes if not o.delivered]
        assert {o.reason_code for o in failed} <= {
            REASON_GATEWAY_DEAD_LETTER,
            REASON_DEADLINE_EXCEEDED,
        }
        assert sorted(n for _, n in inbox) == [
            index for index, o in enumerate(outcomes) if o.delivered
        ]
        assert delivered and failed
        plane = federation.control
        assert plane is not None and plane.actions_applied > 0, (
            "the chaos must have driven at least one control action"
        )
