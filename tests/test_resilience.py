"""The resilience subsystem: breakers, health probes, chaos, failover.

Acceptance bar (ISSUE 4): a dead inter-domain link fails fast through
its circuit breaker instead of burning the full retry budget per
exchange; with the direct link down, ``federated_exchange`` completes
via a healthy intermediate domain with ``reason_code`` unchanged from
the direct path (extra hops recorded); deadlines propagate through
gateway relays and the exchange pipeline; overload sheds instead of
queueing without bound.
"""

from __future__ import annotations

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DEADLINE_EXCEEDED,
    REASON_DELIVERED,
    REASON_OVERLOAD,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.federation.federation import Federation
from repro.federation.gateway import (
    REASON_RELAY_CIRCUIT_OPEN,
    REASON_RELAY_DEADLINE,
)
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.org.model import Organisation, Person
from repro.resilience import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    ChaosRunner,
    CircuitBreaker,
    HealthMonitor,
)
from repro.sim.network import LinkSpec
from repro.sim.world import World
from repro.util.errors import ConfigurationError

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def converter() -> FormatConverter:
    def to_common(document):
        return make_common("note", document.get("title", ""), document.get("body", ""))

    def from_common(common):
        return {"title": common["title"], "body": common["body"]}

    return FormatConverter("fmt", to_common, from_common)


def make_federation(world, names=("upc", "gmd"), metrics=None, **options):
    """N domains with one person each (p-<domain>) and one shared app."""
    assignment = {name: [f"p-{name}"] for name in names}
    federation = Federation.partition(world, assignment, metrics=metrics, **options)
    inbox: list = []
    federation.register_application(
        AppDescriptor(name="app0", quadrants=QUAD, converter=converter()),
        lambda person, doc, info: inbox.append((person, doc)),
    )
    return federation, inbox


DOC = {"title": "minutes", "body": "agenda"}


class TestCircuitBreaker:
    def test_validation(self, world):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(world.engine, failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(world.engine, cooldown_s=0)

    def test_trips_at_threshold_and_fails_fast(self, world):
        breaker = CircuitBreaker(world.engine, failure_threshold=3, cooldown_s=10.0)
        assert breaker.state == STATE_CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.ready()
        assert not breaker.allow()
        assert breaker.fast_failures == 1
        assert breaker.opened == 1

    def test_half_open_trial_success_recloses(self, world):
        breaker = CircuitBreaker(world.engine, failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        world.run_for(5.0)
        assert breaker.state == STATE_HALF_OPEN
        # exactly one trial is admitted at a time
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.reclosed == 1

    def test_half_open_trial_failure_reopens(self, world):
        breaker = CircuitBreaker(world.engine, failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        world.run_for(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.ready()
        # the reopen restarted the cooldown clock
        world.run_for(4.0)
        assert breaker.state == STATE_OPEN
        world.run_for(1.0)
        assert breaker.state == STATE_HALF_OPEN

    def test_success_recloses_from_open(self, world):
        """An external probe reaching the peer recloses a tripped breaker."""
        breaker = CircuitBreaker(world.engine, failure_threshold=1, cooldown_s=30.0)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.failure_streak == 0

    def test_force_open_and_reset(self, world):
        breaker = CircuitBreaker(world.engine)
        breaker.force_open()
        assert breaker.state == STATE_OPEN
        breaker.reset()
        assert breaker.state == STATE_CLOSED

    def test_metrics_counters(self, world):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            world.engine, failure_threshold=1, cooldown_s=5.0, metrics=metrics
        )
        breaker.record_failure()
        breaker.allow()
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["resilience.breaker.opened"] == 1
        assert snapshot["resilience.breaker.fast_failures"] == 1
        stats = breaker.stats()
        assert stats["state"] == STATE_OPEN
        assert stats["opened"] == 1


class TestHealthMonitor:
    def test_probe_outcomes_drive_breaker(self, world):
        breaker = CircuitBreaker(world.engine, failure_threshold=2, cooldown_s=60.0)
        monitor = HealthMonitor(world.engine)
        verdicts = [False, False, True]

        def probe(report):
            report(verdicts.pop(0) if verdicts else True)

        monitor.watch("link", probe, breaker=breaker)
        assert monitor.healthy("link")  # default before any probe
        world.run_for(2.0)  # two failed probes
        assert not monitor.healthy("link")
        assert breaker.state == STATE_OPEN
        world.run_for(1.0)  # successful probe recloses
        assert monitor.healthy("link")
        assert breaker.state == STATE_CLOSED
        stats = monitor.stats()["link"]
        assert stats["probes"] == 3 and stats["failures"] == 2

    def test_stop_halts_probing(self, world):
        monitor = HealthMonitor(world.engine)
        fired: list[bool] = []
        monitor.watch("k", lambda report: fired.append(True) or report(True))
        world.run_for(2.0)
        monitor.stop("k")
        world.run_for(5.0)
        assert len(fired) == 2

    def test_a_late_first_trend_read_sees_the_reports_in_its_window(self, world):
        # the trend window is built with the watch, so a control plane
        # attached after the link started failing still sees it failing
        monitor = HealthMonitor(world.engine)
        monitor.watch("link", lambda report: report(False))
        world.run_for(5.0)  # five failed probes, no trend read yet
        trend = monitor.trend("link")
        assert (trend.samples, trend.success_ratio) == (5, 0.0)

    def test_duplicate_watch_rejected(self, world):
        monitor = HealthMonitor(world.engine)
        monitor.watch("k", lambda report: report(True))
        with pytest.raises(ConfigurationError):
            monitor.watch("k", lambda report: report(True))


class TestChaosRunner:
    def test_flap_link_kills_and_restores(self, world):
        world.add_site("s", ["a", "b"])
        chaos = ChaosRunner(world)
        chaos.flap_link("a", "b", start=1.0, down_s=2.0, up_s=1.0, flaps=2)
        healthy_loss = world.network.link_between("a", "b").loss
        world.run_for(1.5)
        assert world.network.link_between("a", "b").loss == 1.0
        world.run_for(2.0)  # t=3.5: back up
        assert world.network.link_between("a", "b").loss == healthy_loss
        world.run_for(1.0)  # t=4.5: second flap down (4.0..6.0)
        assert world.network.link_between("a", "b").loss == 1.0
        assert [e["kind"] for e in chaos.describe()["events"]] == [
            "link_down",
            "link_down",
        ]

    def test_crash_storm_is_seed_reproducible(self):
        def storm_times(seed):
            world = World(seed=seed)
            world.add_site("s", ["n0", "n1", "n2"])
            chaos = ChaosRunner(world, name="storm")
            chaos.crash_storm(
                ["n0", "n1", "n2"], start=1.0, downtime_s=2.0,
                stagger_s=1.0, jitter_s=0.5,
            )
            return [e["at"] for e in chaos.events]

        assert storm_times(42) == storm_times(42)
        assert storm_times(42) != storm_times(43)

    def test_rolling_partitions_schedule_windows(self, world):
        world.add_site("s", ["a", "b", "c"])
        chaos = ChaosRunner(world)
        chaos.rolling_partitions(
            [[["a"], ["b", "c"]], [["a", "b"], ["c"]]],
            start=1.0, window_s=2.0, gap_s=1.0,
        )
        world.run_for(1.5)
        assert not world.network.reachable("a", "b")
        assert world.network.reachable("b", "c")
        world.run_for(2.0)  # t=3.5: gap, healed
        assert world.network.reachable("a", "b")
        world.run_for(1.0)  # t=4.5: second window
        assert not world.network.reachable("b", "c")
        assert world.network.reachable("a", "b")
        world.run_for(2.0)
        assert world.network.reachable("a", "c")


class TestGatewayBreaker:
    def test_dead_link_trips_breaker_then_fails_fast(self, world):
        federation, _ = make_federation(world)
        upc = federation.domain("upc")
        world.network.set_link(
            upc.node, federation.domain("gmd").node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        gateway = upc.gateway_to("gmd")
        # First exchange burns the full retry budget and trips the breaker.
        first = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert not first.delivered
        assert first.attempts == 4
        assert gateway.breaker.state == STATE_OPEN
        # No healthy intermediate exists: the next exchange fails fast.
        before = world.now
        second = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert not second.delivered
        assert second.attempts == 0
        assert gateway.fast_failed == 1
        assert world.now - before < 0.1  # no retry budget burned
        assert gateway.dead_letters[-1].reason == REASON_RELAY_CIRCUIT_OPEN

    def test_resilience_off_means_no_breakers(self, world):
        federation, _ = make_federation(world, resilience=False)
        gateway = federation.domain("upc").gateway_to("gmd")
        assert gateway.breaker is None
        assert gateway.ready()

    def test_shadow_pulls_skip_while_breaker_open(self, world):
        federation, _ = make_federation(world)
        federation.publish_directories()
        agreement = federation.shadowing[("upc", "gmd")]
        assert agreement.breaker is not None
        agreement.breaker.force_open()
        agreement.sync_now()
        assert agreement.skipped_pulls == 1
        assert agreement.pulls == 0


class TestFailoverRouting:
    def test_failover_via_healthy_intermediate(self, world):
        federation, inbox = make_federation(world, names=("upc", "gmd", "inria"))
        direct = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert direct.delivered
        assert [h.role for h in direct.hops] == ["origin", "deliver", "reply"]
        federation.domain("upc").gateway_to("gmd").breaker.force_open()
        routed = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert routed.delivered
        # outcomes stay field-identical, plus the extra relay hop
        assert routed.reason_code == direct.reason_code == REASON_DELIVERED
        assert routed.outcome.mode == direct.outcome.mode
        assert [h.role for h in routed.hops] == ["origin", "relay", "deliver", "reply"]
        assert routed.hops[1].domain == "inria"
        assert routed.attempts >= 2  # origin->via plus via->target
        assert inbox == [("p-gmd", DOC), ("p-gmd", DOC)]

    def test_failover_failure_reason_codes_survive(self, world):
        """A target-side failure through the relay keeps its reason code."""
        federation, _ = make_federation(world, names=("upc", "gmd", "inria"))
        federation.domain("upc").gateway_to("gmd").breaker.force_open()
        outcome = federation.federated_exchange(ExchangeRequest(
            "p-upc", "unknown", "app0", "app0", DOC
        ))
        assert not outcome.delivered
        assert outcome.reason_code == "unknown-receiver"

    def test_no_intermediate_falls_back_to_dead_letter(self, world):
        federation, _ = make_federation(world)  # two domains only
        federation.domain("upc").gateway_to("gmd").breaker.force_open()
        outcome = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert not outcome.delivered
        assert outcome.reason_code == "gateway-dead-letter"

    def test_failover_second_leg_death(self, world):
        """The direct gateway's breaker is open and the intermediate's
        onward link loses everything: the run dead-letters on the leg to
        the intermediate, which holds the payload, and the intermediate
        later records the onward failure for any duplicate leg."""
        metrics = MetricsRegistry()
        federation, inbox = make_federation(
            world, names=("upc", "gmd", "inria"), metrics=metrics
        )
        upc, gmd, inria = (federation.domain(name) for name in ("upc", "gmd", "inria"))
        upc.gateway_to("gmd").breaker.force_open()
        world.network.set_link(
            inria.node, gmd.node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        outcomes = federation.federated_exchange_many([
            ExchangeRequest("p-upc", "p-gmd", "app0", "app0", DOC),
            ExchangeRequest("p-upc", "p-gmd", "app0", "app0", {"title": "t2", "body": "b"}),
        ])
        assert [o.reason_code for o in outcomes] == ["gateway-dead-letter"] * 2
        assert all(
            o.outcome.reason == "gateway upc->inria unreachable after 4 attempts; "
            "payload parked in dead-letter queue"
            for o in outcomes
        )
        letters = upc.gateway_to("inria").dead_letters
        assert [(letter.target, letter.attempts) for letter in letters] == [("inria", 4)]
        counters = metrics.snapshot()["counters"]
        assert counters["env.federation.dead_letters"] == 2
        assert counters["gateway.deduplicated"] == 3
        assert counters["env.federation.forwarded"] == 1
        world.run_for(60)
        (relay_id, failure), = inria.relay_seen.items()
        assert relay_id == letters[0].payload["relay_id"]
        assert failure["failed"] == "gateway-dead-letter"
        assert failure["detail"] == (
            "forwarded relay inria->gmd failed (relay timeout) after 4 attempts"
        )
        assert [hop["domain"] for hop in failure["relay_path"]] == ["inria"]
        assert [letter.target for letter in inria.gateway_to("gmd").dead_letters] == ["gmd"]
        assert inbox == []

    @pytest.mark.parametrize("batch", [1, 2])
    def test_failover_onward_leg_keeps_the_deadline(self, world, batch):
        """A failover intermediate relays onward under the run's gateway
        deadline, whatever the run's length: against a dead onward link
        the leg expires at the deadline, with nothing parked."""
        federation, _ = make_federation(world, names=("upc", "gmd", "inria"))
        upc, gmd, inria = (federation.domain(name) for name in ("upc", "gmd", "inria"))
        upc.gateway_to("gmd").breaker.force_open()
        world.network.set_link(
            inria.node, gmd.node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        request = ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC, deadline=world.now + 3.0
        )
        outcomes = federation.federated_exchange_many([request] * batch)
        assert [o.reason_code for o in outcomes] == [REASON_DEADLINE_EXCEEDED] * batch
        world.run_for(60)
        onward = inria.gateway_to("gmd")
        assert (onward.expired, onward.dead_letters) == (1, [])

    def test_failover_metrics(self, world):
        metrics = MetricsRegistry()
        federation, _ = make_federation(
            world, names=("upc", "gmd", "inria"), metrics=metrics
        )
        federation.domain("upc").gateway_to("gmd").breaker.force_open()
        federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        counters = metrics.snapshot()["counters"]
        assert counters["env.federation.failover"] == 1
        assert counters["env.federation.forwarded"] == 1

    def test_health_checks_trip_breaker_and_enable_failover(self, world):
        federation, inbox = make_federation(world, names=("upc", "gmd", "inria"))
        federation.start_health_checks()
        upc, gmd = federation.domain("upc"), federation.domain("gmd")
        world.network.set_link(
            upc.node, gmd.node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        # 4 failed probes (threshold) trip the breaker without any relay.
        world.run_for(6.0)
        gateway = upc.gateway_to("gmd")
        assert gateway.breaker.state == STATE_OPEN
        assert gateway.relays == 0
        routed = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert routed.delivered
        assert "relay" in [h.role for h in routed.hops]
        federation.stop_health_checks()

    def test_health_probes_reclose_breaker_after_heal(self, world):
        federation, _ = make_federation(world)
        federation.start_health_checks()
        gateway = federation.domain("upc").gateway_to("gmd")
        gateway.breaker.force_open()
        world.run_for(2.0)  # one successful probe recloses
        assert gateway.breaker.state == STATE_CLOSED
        federation.stop_health_checks()

    def test_describe_reports_resilience(self, world):
        federation, _ = make_federation(world)
        snapshot = federation.describe()
        assert "resilience" in snapshot
        assert snapshot["resilience"]["breakers"]["upc->gmd"]["state"] == STATE_CLOSED
        assert snapshot["resilience"]["health"] is None


def _forwarded_failure(federation, world):
    """The direct breaker is open, the leg to the intermediate slow and
    the onward leg dead: the intermediate reports the failure back
    before the origin's own budget runs out."""
    upc, gmd, inria = (federation.domain(name) for name in ("upc", "gmd", "inria"))
    upc.gateway_to("gmd").breaker.force_open()
    federation.set_pair_link("upc", "inria", LinkSpec(latency_s=1.0, bandwidth_bps=1_000_000.0))
    world.network.set_link(
        inria.node, gmd.node, LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0)
    )
    return {}


def _remote_error(federation, world):
    """An activity only the origin knows: the origin admits the member,
    the target's pipeline raises."""
    federation.domain("upc").env.create_activity(
        "a1", "Review", {"p-upc": "chair", "p-gmd": "member"}
    )
    return {"activity_id": "a1"}


class TestRelaySettlement:
    @pytest.mark.parametrize(
        ("setup", "reason", "roles", "attempts"),
        [
            (
                _forwarded_failure,
                "forwarded relay inria->gmd failed (relay timeout) after 4 attempts",
                ["origin", "relay"],
                7,
            ),
            (
                _remote_error,
                "relay upc->gmd failed remotely: UnknownObjectError: unknown activity 'a1'",
                ["origin"],
                1,
            ),
        ],
        ids=["forwarded-failure", "remote-error"],
    )
    def test_failed_reply_settles_as_a_dead_letter(self, world, setup, reason, roles, attempts):
        federation, inbox = make_federation(world, names=("upc", "gmd", "inria"))
        fields = setup(federation, world)
        outcome = federation.federated_exchange(
            ExchangeRequest("p-upc", "p-gmd", "app0", "app0", DOC, **fields)
        )
        assert outcome.reason_code == "gateway-dead-letter"
        assert outcome.outcome.reason == reason
        assert [hop.role for hop in outcome.hops] == roles
        assert outcome.attempts == attempts
        assert (outcome.origin, outcome.target) == ("upc", "gmd")
        assert inbox == []


class TestDeadlinePropagation:
    def test_expired_deadline_fails_before_pipeline(self, world):
        federation, _ = make_federation(world)
        world.run_for(5.0)
        outcome = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC, deadline=1.0
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_DEADLINE_EXCEEDED

    def test_relay_deadline_cuts_retry_budget(self, world):
        """A relay against a dead link gives up at its deadline, unparked."""
        federation, _ = make_federation(world)
        upc = federation.domain("upc")
        world.network.set_link(
            upc.node, federation.domain("gmd").node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        started = world.now
        outcome = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC, deadline=world.now + 2.0
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_DEADLINE_EXCEEDED
        assert world.now - started == pytest.approx(2.0)
        gateway = upc.gateway_to("gmd")
        assert gateway.expired == 1
        assert gateway.dead_letters == []  # expired relays are not parked

    def test_deadline_reaches_target_pipeline(self, world):
        """The absolute deadline rides the payload into the target env."""
        federation, _ = make_federation(world)
        gmd_env = federation.domain("gmd").env
        seen: dict = {}
        original = gmd_env.exchange

        def spy(request, *args, **kwargs):
            seen["deadline"] = request.deadline
            return original(request, *args, **kwargs)

        gmd_env.exchange = spy
        federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC, deadline=world.now + 50.0
        ))
        assert seen["deadline"] == pytest.approx(50.0)

    def test_local_deadline_in_plain_exchange(self, world):
        env = CSCWEnvironment.builder().with_world(world).build()
        org = Organisation("upc", "UPC")
        org.add_person(Person("ana", "Ana", "upc"))
        org.add_person(Person("joan", "Joan", "upc"))
        env.knowledge_base.add_organisation(org)
        world.add_site("bcn", ["w1", "w2"])
        env.register_person(Communicator("ana", "w1"))
        env.register_person(Communicator("joan", "w2"))
        inbox: list = []
        env.register_application(
            AppDescriptor(name="app0", quadrants=QUAD, converter=converter()),
            lambda person, doc, info: inbox.append(doc),
        )
        ok = env.exchange(ExchangeRequest(
            "ana", "joan", "app0", "app0", DOC, deadline=world.now + 1.0
        ))
        assert ok.delivered
        world.run_for(5.0)
        late = env.exchange(ExchangeRequest(
            "ana", "joan", "app0", "app0", DOC, deadline=1.0
        ))
        assert not late.delivered
        assert late.reason_code == REASON_DEADLINE_EXCEEDED

    def test_expired_queued_deliveries_dropped_at_flush(self, world):
        metrics = MetricsRegistry()
        env = (
            CSCWEnvironment.builder().with_world(world).with_metrics(metrics).build()
        )
        org = Organisation("upc", "UPC")
        org.add_person(Person("ana", "Ana", "upc"))
        org.add_person(Person("joan", "Joan", "upc"))
        env.knowledge_base.add_organisation(org)
        world.add_site("bcn", ["w1", "w2"])
        env.register_person(Communicator("ana", "w1"))
        env.register_person(Communicator("joan", "w2"))
        inbox: list = []
        env.register_application(
            AppDescriptor(name="app0", quadrants=QUAD, converter=converter()),
            lambda person, doc, info: inbox.append(doc),
        )
        env.person_leaves("joan")
        queued = env.exchange(ExchangeRequest(
            "ana", "joan", "app0", "app0", DOC, deadline=world.now + 2.0
        ))
        assert queued.delivered and queued.mode == "asynchronous"
        world.run_for(5.0)  # deadline passes while joan is away
        flushed = env.person_arrives("joan")
        assert flushed == 0
        assert inbox == []
        assert metrics.snapshot()["counters"]["env.shed.expired"] == 1

    def test_default_deadline_builder_knob(self, world):
        env = (
            CSCWEnvironment.builder()
            .with_world(world)
            .with_default_deadline(10.0)
            .build()
        )
        assert env.effective_deadline(None) == pytest.approx(world.now + 10.0)
        assert env.effective_deadline(3.0) == 3.0
        with pytest.raises(ConfigurationError):
            CSCWEnvironment.builder().with_default_deadline(0.0)


class TestLoadShedding:
    def _env(self, world, limit):
        env = (
            CSCWEnvironment.builder()
            .with_world(world)
            .with_shed_limit(limit)
            .build()
        )
        org = Organisation("upc", "UPC")
        org.add_person(Person("ana", "Ana", "upc"))
        org.add_person(Person("joan", "Joan", "upc"))
        env.knowledge_base.add_organisation(org)
        world.add_site("bcn", ["w1", "w2"])
        env.register_person(Communicator("ana", "w1"))
        env.register_person(Communicator("joan", "w2"))
        inbox: list = []
        env.register_application(
            AppDescriptor(name="app0", quadrants=QUAD, converter=converter()),
            lambda person, doc, info: inbox.append(doc),
        )
        return env, inbox

    def test_overload_sheds_beyond_queue_limit(self, world):
        env, inbox = self._env(world, limit=2)
        env.person_leaves("joan")
        outcomes = [
            env.exchange(ExchangeRequest(
                "ana", "joan", "app0", "app0", DOC
            )) for _ in range(4)
        ]
        codes = [o.reason_code for o in outcomes]
        assert codes == [
            REASON_DELIVERED, REASON_DELIVERED, REASON_OVERLOAD, REASON_OVERLOAD,
        ]
        assert env.pending_for("joan") == 2
        env.person_arrives("joan")
        assert len(inbox) == 2

    def test_shed_limit_validation(self, world):
        with pytest.raises(ConfigurationError):
            CSCWEnvironment.builder().with_shed_limit(0)

    def test_exchange_many_sheds_and_expires(self, world):
        from repro.environment.environment import ExchangeRequest

        env, inbox = self._env(world, limit=1)
        env.person_leaves("joan")
        requests = [
            ExchangeRequest("ana", "joan", "app0", "app0", DOC) for _ in range(3)
        ]
        outcomes = env.exchange_many(requests)
        assert [o.reason_code for o in outcomes] == [
            REASON_DELIVERED, REASON_OVERLOAD, REASON_OVERLOAD,
        ]
        world.run_for(10.0)
        expired = env.exchange_many(
            [ExchangeRequest("ana", "joan", "app0", "app0", DOC, deadline=1.0)]
        )
        assert expired[0].reason_code == REASON_DEADLINE_EXCEEDED


class TestMessagingDeadline:
    def test_expired_envelope_non_delivers(self, world):
        from repro.messaging.mta import MessageTransferAgent
        from repro.messaging.names import OrName
        from repro.messaging.ua import UserAgent

        world.add_site("a", ["mta-a", "wa"])
        world.add_site("b", ["mta-b", "wb"])
        mta_a = MessageTransferAgent(world, "mta-a", "a", [("xx", "", "a")])
        mta_b = MessageTransferAgent(world, "mta-b", "b", [("xx", "", "b")])
        mta_a.add_peer("b", "mta-b")
        mta_b.add_peer("a", "mta-a")
        mta_a.routing.add_default("b")
        mta_b.routing.add_default("a")
        alice = OrName(country="xx", admd="", prmd="a", surname="alice")
        bob = OrName(country="xx", admd="", prmd="b", surname="bob")
        ua_a = UserAgent(world, "wa", alice, "mta-a")
        ua_b = UserAgent(world, "wb", bob, "mta-b")
        ua_a.register()
        ua_b.register()
        reports: list = []
        mta_a.add_report_hook(reports.append)
        # In time: delivered normally.
        ua_a.send([bob], "on time", "body", expires_at=world.now + 30.0)
        world.run_for(5.0)
        assert len(ua_b.list_inbox()) == 1
        # Already expired at processing time: NDR with the deadline reason.
        envelope = ua_a.compose([bob], "too late", "body", expires_at=world.now)
        ua_a.submit(envelope)
        world.run_for(5.0)
        assert len(ua_b.list_inbox()) == 1
        expired = [
            r for r in reports
            if r.get("report") == "non-delivery"
            and r.get("reason") == "deadline-exceeded"
        ]
        assert len(expired) == 1

    def test_relay_deadline_constant_matches_env(self):
        # One reason-code vocabulary across layers: gateway, environment,
        # and messaging all call a missed deadline the same thing.
        from repro.messaging.reports import REASON_EXPIRED

        assert REASON_RELAY_DEADLINE == REASON_DEADLINE_EXCEEDED == REASON_EXPIRED


class TestGatewayRegressions:
    """Dedicated regressions for the two gateway fault-path bugs."""

    def _gateway(self, world, latency_s=0.01, serve=True, **kw):
        from repro.federation.gateway import Gateway
        from repro.sim.transport import RequestReply

        network = world.network
        network.add_node("src", site="s1")
        network.add_node("dst", site="s2")
        network.set_link(
            "src", "dst", LinkSpec(latency_s=latency_s, bandwidth_bps=1e9)
        )
        rpc_src = RequestReply(network, "src", port="gateway")
        rpc_dst = RequestReply(network, "dst", port="gateway")
        if serve:
            rpc_dst.serve("relay", lambda payload: {"ok": True, "n": payload["n"]})
        return Gateway(rpc_src, "a", "b", "dst", **kw)

    def test_late_reply_fires_on_reply_exactly_once(self, world):
        """Regression: link latency > retry interval makes several attempts
        race; only the first reply may settle the relay."""
        gateway = self._gateway(world, latency_s=1.0)
        replies: list = []
        letters: list = []
        gateway.relay({"n": 1}, lambda r, a: replies.append((r, a)), letters.append)
        world.run_for(12.0)
        # attempts at 0 / 0.5 / 1.5 all get replies (~2 s round trip each):
        # the first settles, the rest are counted as duplicates, and the
        # dead-letter path never fires.
        assert len(replies) == 1
        assert replies[0][0]["ok"] is True
        assert gateway.delivered == 1
        assert gateway.duplicate_replies >= 1
        assert letters == []
        assert gateway.stats()["dead_letters"] == 0

    def test_redrive_preserves_dead_letter_callback(self, world):
        """Regression: a redriven letter that dies again must notify the
        original on_dead_letter, and stats must not double-count."""
        gateway = self._gateway(world)
        world.network.node("dst").crash()
        replies: list = []
        letters: list = []
        gateway.relay({"n": 7}, lambda r, a: replies.append(r), letters.append)
        world.run_for(10.0)
        assert len(letters) == 1
        assert gateway.stats()["dead_letters"] == 1
        # Redrive while the target is still down: the letter dies again
        # and the preserved callback reports it.
        assert gateway.redrive() == 1
        world.run_for(10.0)
        assert len(letters) == 2
        assert len(gateway.dead_letters) == 2  # history keeps both entries
        assert gateway.stats()["dead_letters"] == 1  # but only one is live
        # Heal and redrive again: the original on_reply finally fires.
        world.network.node("dst").recover()
        assert gateway.redrive() == 1
        world.run_for(10.0)
        assert replies and replies[0]["n"] == 7
        assert gateway.stats()["dead_letters"] == 0
        assert gateway.redrive() == 0

    def test_redrive_recloses_breaker(self, world):
        breaker = CircuitBreaker(world.engine, failure_threshold=4, cooldown_s=60.0)
        gateway = self._gateway(world, breaker=breaker)
        world.network.node("dst").crash()
        letters: list = []
        gateway.relay({"n": 1}, lambda r, a: None, letters.append)
        world.run_for(10.0)
        assert breaker.state == STATE_OPEN  # one dead relay = 4 failures
        world.network.node("dst").recover()
        delivered_before = gateway.delivered
        assert gateway.redrive() == 1  # redrive asserts the link healed
        assert breaker.state == STATE_CLOSED
        world.run_for(5.0)
        assert gateway.delivered == delivered_before + 1
