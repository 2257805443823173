"""Tests for the CSCW environment facade and the exchange primitive."""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.transparency import TransparencyProfile
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World
from repro.util.events import EventRecorder


@pytest.fixture
def env(world) -> CSCWEnvironment:
    env = CSCWEnvironment.builder().with_world(world).build()
    upc = Organisation("upc", "UPC")
    upc.add_person(Person("ana", "Ana Lopez", "upc"))
    gmd = Organisation("gmd", "GMD")
    gmd.add_person(Person("wolf", "Wolf Prinz", "gmd"))
    env.knowledge_base.add_organisation(upc)
    env.knowledge_base.add_organisation(gmd)
    env.knowledge_base.policies.declare(
        "upc", "gmd", {INTERACTION_MESSAGE, "service-import"}, symmetric=True
    )
    world.add_site("bcn", ["ws-ana"])
    world.add_site("bonn", ["ws-wolf"])
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("wolf", "ws-wolf"))
    return env


@pytest.fixture
def two_apps(env):
    conferencing = ConferencingSystem()
    messages = MessageSystem()
    conferencing.attach(env, exporter_org="upc")
    messages.attach(env, exporter_org="gmd")
    return conferencing, messages


class TestExchange:
    def test_full_transparency_cross_org_cross_format(self, env, two_apps):
        conferencing, messages = two_apps
        outcome = env.exchange(ExchangeRequest(
            sender="ana",
            receiver="wolf",
            sender_app="conferencing",
            receiver_app="message-system",
            document={"topic": "ODP", "entry": "will it help?", "author": "ana"},
        ))
        assert outcome.delivered
        assert outcome.translated
        assert set(outcome.handled) >= {"organisation", "view"}
        memos = messages.folder("wolf")
        assert memos[0].subject == "ODP"
        assert memos[0].text == "will it help?"

    def test_same_format_no_translation(self, env, two_apps):
        conferencing, messages = two_apps
        second = ConferencingSystem(instance_name="conf2")
        # Same converter name would collide in interchange; register app
        # without converter re-registration by reusing descriptor format.
        from repro.environment.registry import AppDescriptor

        env.applications.register(
            AppDescriptor(name="conf2", quadrants=conferencing.quadrants,
                          converter=None),
            second.deliver,
        )
        # conf2 has no converter => format '' differs from 'conference';
        # instead test same-app exchange.
        outcome = env.exchange(ExchangeRequest(
            sender="ana",
            receiver="wolf",
            sender_app="conferencing",
            receiver_app="conferencing",
            document={"topic": "t", "entry": "e", "conference": "general", "author": "ana"},
        ))
        assert outcome.delivered
        assert not outcome.translated

    def test_org_transparency_off_blocks_cross_org(self, env, two_apps):
        profile = TransparencyProfile.all_on().without("organisation")
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, profile=profile,
        ))
        assert not outcome.delivered
        assert "organisation transparency off" in outcome.reason

    def test_incompatible_policy_blocks_even_with_transparency(self, env, two_apps):
        env.knowledge_base.organisation("gmd").add_person(
            Person("heinz", "Heinz Berg", "gmd")
        )
        # No policy between gmd and an undeclared org is irrelevant here;
        # instead remove compatibility by using an interaction the policy
        # does not cover.
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, interaction="realtime",
        ))
        assert not outcome.delivered
        assert "no compatible policy" in outcome.reason

    def test_view_transparency_off_blocks_format_mismatch(self, env, two_apps):
        profile = TransparencyProfile.all_on().without("view")
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, profile=profile,
        ))
        assert not outcome.delivered
        assert "format mismatch" in outcome.reason

    def test_time_transparency_falls_back_to_async(self, env, two_apps):
        env.communicators.set_presence("wolf", False)
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"},
        ))
        assert outcome.delivered
        assert outcome.mode == "asynchronous"
        assert "time" in outcome.handled

    def test_time_transparency_off_fails_when_absent(self, env, two_apps):
        env.communicators.set_presence("wolf", False)
        profile = TransparencyProfile.all_on().without("time")
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, profile=profile,
        ))
        assert not outcome.delivered
        assert "time transparency off" in outcome.reason

    def test_activity_scoping_isolates_events(self, env, two_apps):
        env.create_activity("act1", "one", members={"ana": "chair", "wolf": "participant"})
        env.create_activity("act2", "two", members={"ana": "chair", "wolf": "participant"})
        act1_events = EventRecorder()
        act2_events = EventRecorder()
        env.bus.subscribe("activity/act1", act1_events)
        env.bus.subscribe("activity/act2", act2_events)
        env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, activity_id="act1",
        ))
        assert len(act1_events.events) == 1
        assert act2_events.events == []

    def test_activity_transparency_off_leaks_globally(self, env, two_apps):
        env.create_activity("act1", "one", members={"ana": "chair", "wolf": "m"})
        global_events = EventRecorder()
        scoped_events = EventRecorder()
        env.bus.subscribe("exchange", global_events)
        env.bus.subscribe("activity/act1", scoped_events)
        profile = TransparencyProfile.all_on().without("activity")
        env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, activity_id="act1", profile=profile,
        ))
        assert len(global_events.events) == 1
        assert scoped_events.events == []

    def test_nonmember_cannot_exchange_in_activity(self, env, two_apps):
        env.create_activity("act1", "one", members={"ana": "chair"})
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"}, activity_id="act1",
        ))
        assert not outcome.delivered
        assert "not a member" in outcome.reason

    def test_view_rendering_applied(self, env, two_apps):
        conferencing, messages = two_apps
        received = []
        filed = messages.on_receive
        messages.on_receive = lambda person, doc, info: (received.append(doc),
                                                         filed(person, doc, info))
        env.views.set_view("wolf", language="de", font="large")
        env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"},
        ))
        [document] = received
        assert document["_view"] == {"language": "de", "font": "large"}
        assert [memo.subject for memo in messages.folder("wolf")] == ["t"]

    def test_exchange_counters_and_log(self, env, two_apps):
        env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "message-system",
                                     {"topic": "t", "entry": "e"}))
        profile = TransparencyProfile.all_off()
        env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "message-system",
                                     {"topic": "t", "entry": "e"}, profile=profile))
        assert env.exchanges_attempted == 2
        assert env.exchanges_failed == 1
        assert len(env.communication_log) == 1

    def test_trading_policy_installed(self, env, two_apps):
        """Section 6.1: the org KB dictates the trader's policy."""
        from repro.odp.objects import InterfaceRef
        from repro.odp.trader import ImportContext
        from repro.util.errors import NoOfferError

        env.trader.export("archiving", InterfaceRef("n", "o", "i"), exporter="mars")
        with pytest.raises(NoOfferError):
            env.trader.import_one(
                "archiving", context=ImportContext(organisation="upc")
            )

    def test_interop_coverage_full_with_converters(self, env, two_apps):
        assert env.interop_coverage() == 1.0
        assert env.integration_cost() == 2

    def test_outcome_reason_code_uniform_for_success_and_failure(self, env, two_apps):
        ok = env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "message-system",
                                          {"topic": "t", "entry": "e"}))
        assert ok.reason_code == "delivered"
        assert ok.reason  # populated on success too, not only on failure
        bad = env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "message-system",
                                           {"topic": "t", "entry": "e"},
                                           profile=TransparencyProfile.all_off()))
        assert bad.reason_code == "organisation-opaque"
        assert bad.reason

    def test_environment_stamps_event_time(self, env, two_apps):
        """Events published through the environment carry simulated time."""
        recorder = EventRecorder()
        env.bus.subscribe("exchange", recorder)
        env.world.engine.schedule(5.0, lambda: env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e"})))
        env.world.run()
        assert recorder.events[0].time == 5.0


class TestEnvironmentBuilder:
    """The fluent construction path and its observability knobs."""

    def _populate(self, env):
        upc = Organisation("upc", "UPC")
        upc.add_person(Person("ana", "Ana Lopez", "upc"))
        env.knowledge_base.add_organisation(upc)
        env.world.add_site("bcn", ["ws-ana"])
        env.register_person(Communicator("ana", "ws-ana"))
        ConferencingSystem().attach(env, exporter_org="upc")

    def test_builder_round_trip_matches_legacy_constructor(self, world):
        """An explicitly named build wires exactly what the default build
        does (the builder is the only constructor)."""
        built = CSCWEnvironment.builder().with_world(world).with_name("mocca").build()
        default = CSCWEnvironment.builder().with_world(World(seed=42)).build()
        assert type(built) is CSCWEnvironment
        assert built.name == default.name
        assert built.trader.name == default.trader.name
        # both builds end with the same wiring surface
        for attribute in ("bus", "knowledge_base", "trader", "applications",
                          "scheduler", "metrics", "tracer", "views"):
            assert hasattr(built, attribute) and hasattr(default, attribute)
        assert built.metrics.enabled is False
        assert built.tracer.enabled is False

    def test_built_environment_exchanges_end_to_end(self, world):
        env = CSCWEnvironment.builder().with_world(world).build()
        self._populate(env)
        outcome = env.exchange(ExchangeRequest("ana", "ana", "conferencing", "conferencing",
                                               {"topic": "t", "entry": "e", "author": "ana"}))
        assert outcome.delivered

    def test_with_metrics_instruments_owned_layers(self, world):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        env = (CSCWEnvironment.builder()
               .with_world(world)
               .with_metrics(registry)
               .build())
        self._populate(env)
        env.exchange(ExchangeRequest("ana", "ana", "conferencing", "conferencing",
                                     {"topic": "t", "entry": "e", "author": "ana"}))
        from repro.odp.objects import InterfaceRef

        env.trader.export("printing", InterfaceRef("n", "o", "i"))
        env.trader.import_one("printing")
        world.engine.schedule(1.0, lambda: None)
        world.run()
        counters = registry.snapshot()["counters"]
        assert counters[f"env.exchange.reasons{{domain={env.name},reason=delivered}}"] == 1
        assert counters["trader.exports"] == 1
        assert counters["trader.imports"] == 1
        assert counters["sim.engine.fired"] >= 1
        assert counters["events.published"] >= 1
        assert env.describe()["metrics"]["counters"] == counters

    def test_with_tracer_puts_trace_id_on_outcomes(self, world):
        from repro.obs import Tracer

        tracer = Tracer()
        env = (CSCWEnvironment.builder()
               .with_world(world)
               .with_tracer(tracer)
               .build())
        self._populate(env)
        outcome = env.exchange(ExchangeRequest("ana", "ana", "conferencing", "conferencing",
                                               {"topic": "t", "entry": "e", "author": "ana"}))
        assert outcome.trace_id == "trace-0001"
        [span] = tracer.finished()
        assert span.name == "env.exchange"
        assert span.tags["delivered"] is True
        # failure path carries the same trace linkage
        failure = env.exchange(ExchangeRequest("ana", "ghost", "conferencing", "conferencing",
                                               {"topic": "t", "entry": "e"},
                                               profile=TransparencyProfile.all_off()))
        assert failure.trace_id == "trace-0002"
        assert tracer.finished()[-1].tags["reason_code"] == failure.reason_code

    def test_recorded_exchange_spans_carry_identity_tags(self, world):
        from repro.obs import Tracer

        tracer = Tracer()
        env = (CSCWEnvironment.builder()
               .with_world(world)
               .with_name("mocca")
               .with_tracer(tracer)
               .with_sharding(2)
               .build())
        self._populate(env)
        env.exchange(ExchangeRequest("ana", "ana", "conferencing", "conferencing",
                                     {"topic": "t", "entry": "e", "author": "ana"}))
        [span] = tracer.finished()
        assert span.tags["domain"] == "mocca"
        assert span.tags["sender"] == "ana"
        assert span.tags["receiver"] == "ana"
        assert span.tags["sender_app"] == "conferencing"
        assert span.tags["receiver_app"] == "conferencing"
        assert span.tags["shard"]  # resolved through the directory ring

    def test_failed_unsampled_exchange_keeps_identity_context(self, world):
        # p=0.0 drops every healthy trace; the identity tags exist only
        # where a reader can see them: on retained (here: failed) spans
        from repro.obs import Tracer

        tracer = Tracer()
        env = (CSCWEnvironment.builder()
               .with_world(world)
               .with_name("mocca")
               .with_tracer(tracer)
               .with_trace_sampling(0.0, seed=1)
               .build())
        self._populate(env)
        env.exchange(ExchangeRequest("ana", "ana", "conferencing", "conferencing",
                                     {"topic": "t", "entry": "e", "author": "ana"}))
        assert tracer.finished() == []  # healthy trace sampled out
        failure = env.exchange(ExchangeRequest("ana", "ghost", "conferencing", "conferencing",
                                               {"topic": "t", "entry": "e"},
                                               profile=TransparencyProfile.all_off()))
        [span] = tracer.finished()  # tail retention rescued the failure
        assert span.tags["reason_code"] == failure.reason_code
        assert span.tags["domain"] == "mocca"
        assert span.tags["receiver"] == "ghost"

    def test_an_added_trader_policy_hook_filters_offers(self, world):
        from repro.odp.objects import InterfaceRef
        from repro.util.errors import NoOfferError

        env = CSCWEnvironment.builder().with_world(world).build()
        env.trader.add_policy_hook(lambda offer, context: False)
        env.trader.export("printing", InterfaceRef("n", "o", "i"))
        with pytest.raises(NoOfferError):
            env.trader.import_one("printing")

    def test_builder_requires_world(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CSCWEnvironment.builder().build()

    def test_legacy_constructor_accepts_observability_kwargs(self, world):
        from repro.obs import MetricsRegistry, Tracer

        """The builder's observability knobs attach the registry itself;
        the positional constructor is gone."""
        registry = MetricsRegistry()
        env = (CSCWEnvironment.builder()
               .with_world(world)
               .with_metrics(registry)
               .with_tracer(Tracer())
               .build())
        assert env.metrics is registry
        assert env.tracer.enabled is True
        pytest.raises(TypeError, CSCWEnvironment, world)
