"""Tests for the mediation subsystem: trader-published conversion
capabilities, multi-hop plan synthesis, fidelity negotiation, keyed plan
caching, and the exchange-pipeline / federation integration.

The acceptance bar (E17): apps publish O(N) converters yet every one of
the N·(N−1) pairs is reachable through synthesized plans; a withdrawn
or re-published converter evicts exactly the plans that used it (never
the whole cache); and a caller's ``min_fidelity`` floor either selects
a negotiated downgrade or fails with a structured ``REASON_FIDELITY``.
"""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.message_system import MessageSystem
from repro.apps.workflow import WorkflowSystem
from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_FIDELITY,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.federation import Federation
from repro.information.interchange import FormatConverter, is_common, make_common
from repro.mediation import (
    KIND_DIRECT,
    KIND_PARTIAL,
    SERVICE_TYPE_CONVERTER,
    ConversionCapability,
    MediationError,
    Mediator,
    capabilities_from_converter,
    direct_capability,
)
from repro.obs.metrics import MetricsRegistry
from repro.odp.trader import Trader
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World
from repro.util.errors import ConfigurationError, FidelityError, InteropError

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def _identity(document):
    return dict(document)


def _converter(name: str, fidelity: float = 1.0) -> FormatConverter:
    return FormatConverter(
        name,
        to_common=lambda d, n=name: make_common(
            "note", d.get(f"{n}-title", ""), d.get(f"{n}-body", "")
        ),
        from_common=lambda c, n=name: {
            f"{n}-title": c["title"],
            f"{n}-body": c["body"],
        },
        fidelity=fidelity,
    )


@pytest.fixture
def mediator() -> Mediator:
    return Mediator(Trader("hq"))


class TestCapability:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConversionCapability("", "a", "b", _identity)
        with pytest.raises(ConfigurationError):
            ConversionCapability("x", "a", "a", _identity)
        with pytest.raises(ConfigurationError):
            ConversionCapability("x", "a", "b", _identity, fidelity=0.0)
        with pytest.raises(ConfigurationError):
            ConversionCapability("x", "a", "b", _identity, fidelity=1.5)
        with pytest.raises(ConfigurationError):
            ConversionCapability("x", "a", "b", _identity, cost=0.0)
        with pytest.raises(ConfigurationError):
            ConversionCapability("x", "a", "b", _identity, kind="mystery")

    def test_offer_properties_carry_metadata_not_code(self):
        capability = direct_capability("a", "b", _identity, fidelity=0.8, cost=2.0)
        properties = capability.offer_properties()
        assert properties["source"] == "a"
        assert properties["target"] == "b"
        assert properties["fidelity"] == 0.8
        assert properties["kind"] == KIND_DIRECT
        assert not any(callable(value) for value in properties.values())

    def test_capabilities_from_converter(self):
        pair = capabilities_from_converter(_converter("memo", fidelity=0.9))
        assert [c.capability_id for c in pair] == ["to-common:memo", "from-common:memo"]
        assert all(c.fidelity == 0.9 for c in pair)
        common = pair[0].convert({"memo-title": "t", "memo-body": "b"})
        assert is_common(common)
        back = pair[1].convert(common)
        assert back == {"memo-title": "t", "memo-body": "b"}

    def test_from_common_capability_rejects_non_common_input(self):
        _, from_common = capabilities_from_converter(_converter("memo"))
        with pytest.raises(InteropError):
            from_common.convert({"not": "common"})


class TestPlanning:
    def test_publish_exports_trader_offer(self, mediator):
        mediator.publish(direct_capability("a", "b", _identity))
        offers = mediator._trader.import_(SERVICE_TYPE_CONVERTER, max_offers=10)
        assert len(offers) == 1
        assert offers[0].properties["source"] == "a"

    def test_identity_plan_is_trivial(self, mediator):
        plan = mediator.plan("a", "a")
        assert plan.hops == 0
        assert plan.fidelity == 1.0

    def test_direct_route_beats_hub_on_cost(self, mediator):
        for capability in capabilities_from_converter(_converter("a")):
            mediator.publish(capability)
        for capability in capabilities_from_converter(_converter("b")):
            mediator.publish(capability)
        mediator.publish(direct_capability("a", "b", _identity, cost=1.0))
        plan = mediator.plan("a", "b")
        assert plan.path == ("a", "b")
        assert plan.hops == 1

    def test_lossless_hub_beats_lossy_direct(self, mediator):
        # ranking is fidelity-first: a 2-hop lossless route through the
        # common form wins over a cheaper but lossy direct converter
        for capability in capabilities_from_converter(_converter("a")):
            mediator.publish(capability)
        for capability in capabilities_from_converter(_converter("b")):
            mediator.publish(capability)
        mediator.publish(
            direct_capability("a", "b", _identity, fidelity=0.9, cost=0.5,
                              kind=KIND_PARTIAL)
        )
        plan = mediator.plan("a", "b")
        assert plan.path == ("a", "common", "b")
        assert plan.fidelity == 1.0

    def test_multi_hop_synthesis(self, mediator):
        # fax -> scan -> document -> common -> memo: four hops no single
        # converter covers
        mediator.publish(
            direct_capability("fax", "scan", _identity, fidelity=0.95,
                              kind=KIND_PARTIAL)
        )
        mediator.publish(
            direct_capability("scan", "document", _identity, fidelity=0.9,
                              kind=KIND_PARTIAL)
        )
        for capability in capabilities_from_converter(_converter("document")):
            mediator.publish(capability)
        for capability in capabilities_from_converter(_converter("memo")):
            mediator.publish(capability)
        plan = mediator.plan("fax", "memo")
        assert plan.path == ("fax", "scan", "document", "common", "memo")
        assert plan.hops == 4
        assert plan.fidelity == pytest.approx(0.95 * 0.9)

    def test_no_route_raises(self, mediator):
        mediator.publish(direct_capability("a", "b", _identity))
        with pytest.raises(MediationError):
            mediator.plan("b", "z")
        assert mediator.failures == 1

    def test_plan_cache_hits(self, mediator):
        mediator.publish(direct_capability("a", "b", _identity))
        mediator.plan("a", "b")
        mediator.plan("a", "b")
        assert mediator.plans_synthesized == 1
        assert mediator.plan_hits == 1

    def test_reachability_quadratic_from_linear_converters(self, mediator):
        names = [f"fmt{i}" for i in range(5)]
        for name in names:
            for capability in capabilities_from_converter(_converter(name)):
                mediator.publish(capability)
        assert mediator.capability_count() == 2 * len(names)
        assert mediator.reachable_pairs() == len(names) * (len(names) - 1)


class TestNegotiation:
    def _lossy(self, mediator):
        mediator.publish(
            direct_capability("a", "b", _identity, fidelity=0.9, kind=KIND_PARTIAL)
        )

    def test_accepts_within_floor(self, mediator):
        self._lossy(mediator)
        plan = mediator.negotiate("a", "b", min_fidelity=0.8)
        assert plan.fidelity == 0.9
        assert mediator.negotiated_downgrades == 1

    def test_lossless_plan_is_not_a_downgrade(self, mediator):
        mediator.publish(direct_capability("a", "b", _identity))
        mediator.negotiate("a", "b", min_fidelity=0.99)
        assert mediator.negotiated_downgrades == 0

    def test_rejects_below_floor_with_structured_error(self, mediator):
        self._lossy(mediator)
        with pytest.raises(FidelityError) as excinfo:
            mediator.negotiate("a", "b", min_fidelity=0.95)
        assert excinfo.value.best_fidelity == 0.9
        assert excinfo.value.min_fidelity == 0.95
        assert mediator.fidelity_rejections == 1


class TestKeyedEviction:
    def _populated(self, mediator):
        for name in ("a", "b", "c"):
            for capability in capabilities_from_converter(_converter(name)):
                mediator.publish(capability)
        mediator.publish(
            direct_capability("a", "b", _identity, cost=0.5, kind=KIND_DIRECT)
        )
        mediator.plan("a", "b")  # uses direct:a->b
        mediator.plan("b", "c")  # uses b/c common bridge

    def test_withdraw_evicts_only_dependent_plans(self, mediator):
        self._populated(mediator)
        mediator.withdraw("direct:a->b")
        stats = mediator.stats()
        assert stats["plan_evictions"] == 1
        assert stats["whole_cache_invalidations"] == 0
        # the surviving plan still hits; the evicted pair re-synthesizes
        # through the common form
        hits = mediator.plan_hits
        mediator.plan("b", "c")
        assert mediator.plan_hits == hits + 1
        assert mediator.plan("a", "b").path == ("a", "common", "b")

    def test_publish_evicts_only_endpoint_plans(self, mediator):
        self._populated(mediator)
        mediator.publish(
            direct_capability("c", "z", _identity, cost=0.5, kind=KIND_DIRECT)
        )
        stats = mediator.stats()
        # (b, c) has endpoint c so it goes; (a, b) survives
        assert stats["plan_evictions"] == 1
        assert stats["whole_cache_invalidations"] == 0
        hits = mediator.plan_hits
        mediator.plan("a", "b")
        assert mediator.plan_hits == hits + 1

    def test_hub_registration_evicts_nothing(self, mediator):
        # "common" is never a plan endpoint, so a new app joining the
        # hub must not disturb any cached plan
        self._populated(mediator)
        for capability in capabilities_from_converter(_converter("d")):
            mediator.publish(capability)
        assert mediator.stats()["plan_evictions"] == 0

    def test_invalidate_all_is_the_only_whole_cache_path(self, mediator):
        self._populated(mediator)
        mediator.invalidate_all()
        stats = mediator.stats()
        assert stats["whole_cache_invalidations"] == 1
        assert stats["plans_cached"] == 0

    def test_replace_converter_republishes(self, mediator):
        converter = _converter("a")
        mediator.publish_converter(converter)
        with pytest.raises(ConfigurationError):
            mediator.publish_converter(converter)
        mediator.publish_converter(_converter("a", fidelity=0.8), replace=True)
        capability = mediator.capability("to-common:a")
        assert capability.fidelity == 0.8


class TestTranslate:
    def test_multi_hop_execution(self, mediator):
        mediator.publish(
            direct_capability(
                "fax", "scan",
                lambda d: {"scan-title": d["fax-title"], "scan-body": d["fax-body"]},
                fidelity=0.95, kind=KIND_PARTIAL,
            )
        )
        for capability in capabilities_from_converter(_converter("scan")):
            mediator.publish(capability)
        for capability in capabilities_from_converter(_converter("memo")):
            mediator.publish(capability)
        result = mediator.translate(
            "fax", "memo", {"fax-title": "t", "fax-body": "b"}
        )
        assert result.document == {"memo-title": "t", "memo-body": "b"}
        assert result.hops == 3
        assert result.fidelity == pytest.approx(0.95)

    def test_identity_deep_copies(self, mediator):
        original = {"nested": {"n": 1}}
        result = mediator.translate("a", "a", original)
        assert result.document == original
        result.document["nested"]["n"] = 2
        assert original["nested"]["n"] == 1
        assert mediator.identities == 1

    def test_translate_enforces_floor(self, mediator):
        mediator.publish(
            direct_capability("a", "b", _identity, fidelity=0.7, kind=KIND_PARTIAL)
        )
        with pytest.raises(FidelityError):
            mediator.translate("a", "b", {}, min_fidelity=0.9)


def make_env(world, *, metrics=None, mediation=True):
    builder = CSCWEnvironment.builder().with_world(world)
    if mediation:
        builder = builder.with_mediation()
    if metrics is not None:
        builder = builder.with_metrics(metrics)
    env = builder.build()
    upc = Organisation("upc", "UPC")
    upc.add_person(Person("ana", "Ana Lopez", "upc"))
    upc.add_person(Person("wolf", "Wolf Prinz", "upc"))
    env.knowledge_base.add_organisation(upc)
    world.add_site("bcn", ["ws-ana", "ws-wolf"])
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("wolf", "ws-wolf"))
    return env


def _fax_descriptor():
    return AppDescriptor(
        name="faxline",
        quadrants=QUAD,
        native_format="fax",
        capabilities=[
            direct_capability(
                "fax", "memo",
                lambda d: {
                    "subject": d.get("fax-title", ""),
                    "text": d.get("fax-body", ""),
                    "fields": {},
                },
                fidelity=0.95, kind=KIND_PARTIAL, exporter="faxline",
            )
        ],
    )


class TestEnvironmentIntegration:
    def test_builder_wires_mediator_and_registry_publishes(self):
        env = make_env(World(seed=3))
        MessageSystem().attach(env)
        assert env.mediator is not None
        assert env.mediator.capability_count() == 2  # to/from common
        assert "memo" in env.mediator.formats()

    def test_capabilities_require_mediation(self):
        env = make_env(World(seed=3), mediation=False)
        with pytest.raises(ConfigurationError, match="no mediator"):
            env.register_application(_fax_descriptor(), lambda p, d, i: None)

    def test_mediator_only_format_flows_through_exchange(self):
        env = make_env(World(seed=3))
        MessageSystem().attach(env)
        inbox = []
        env.register_application(
            _fax_descriptor(), lambda person, doc, info: inbox.append(doc)
        )
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "faxline", "message-system",
            {"fax-title": "offer", "fax-body": "sign here"},
        ))
        assert outcome.delivered
        assert outcome.reason_code == REASON_DELIVERED
        assert outcome.fidelity == pytest.approx(0.95)
        message_system = env.applications.descriptor("message-system")
        assert message_system.format_name == "memo"

    def test_unmeetable_floor_fails_with_reason_fidelity(self):
        env = make_env(World(seed=3))
        MessageSystem().attach(env)
        env.register_application(
            _fax_descriptor(), lambda person, doc, info: None
        )
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "faxline", "message-system",
            {"fax-title": "t", "fax-body": "b"},
            min_fidelity=0.99,
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_FIDELITY

    def test_hub_pair_too_lossy_without_better_plan(self):
        # both formats live in the static hub; the hub result (0.9 via
        # the lossy form converter) misses the floor and no mediated
        # plan improves on it -> structured fidelity failure
        env = make_env(World(seed=3))
        ConferencingSystem().attach(env)
        WorkflowSystem().attach(env)
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "workflow",
            {"topic": "t", "entry": "e"},
            min_fidelity=0.95,
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_FIDELITY

    def test_mediator_shortcut_rescues_lossy_hub_pair(self):
        env = make_env(World(seed=3))
        ConferencingSystem().attach(env)
        WorkflowSystem().attach(env)
        env.mediator.publish(
            direct_capability(
                "conference", "form",
                lambda d: {"form_name": d.get("topic", ""),
                           "slots": {"entry": d.get("entry", "")}},
                fidelity=1.0, cost=0.5,
            )
        )
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "workflow",
            {"topic": "t", "entry": "e"},
            min_fidelity=0.95,
        ))
        assert outcome.delivered
        assert outcome.fidelity == 1.0

    def test_capability_only_formats_plan_negotiate_and_deliver(self):
        """Two apps known only by their published capabilities reach the
        message system through a synthesized plan; the fidelity floor
        accepts the negotiated downgrade or refuses it, reason-coded."""
        env = make_env(World(seed=8))
        message_system = MessageSystem()
        message_system.attach(env)
        DocumentProcessor().attach(env)
        env.register_application(
            AppDescriptor(name="faxline", quadrants=QUAD, native_format="fax",
                          capabilities=[direct_capability(
                              "fax", "scan",
                              lambda d: {"scan-title": d.get("fax-title", ""),
                                         "scan-body": d.get("fax-body", "")},
                              fidelity=0.95, kind=KIND_PARTIAL, exporter="faxline")]),
            lambda person, doc, info: None,
        )
        env.register_application(
            AppDescriptor(name="scanstore", quadrants=QUAD, native_format="scan",
                          capabilities=[direct_capability(
                              "scan", "document",
                              lambda d: {"title": d.get("scan-title", ""),
                                         "paragraphs": [d.get("scan-body", "")]},
                              fidelity=0.9, kind=KIND_PARTIAL, exporter="scanstore")]),
            lambda person, doc, info: None,
        )
        plan = env.mediator.plan("fax", "memo")
        assert plan.hops >= 3
        assert env.mediator.negotiate("fax", "memo", min_fidelity=0.8).fidelity < 1.0
        with pytest.raises(FidelityError):
            env.mediator.negotiate("fax", "memo", min_fidelity=0.9)
        doc = {"fax-title": "offer", "fax-body": "sign here"}
        delivered = env.exchange(ExchangeRequest(
            "ana", "wolf", "faxline", "message-system", doc, min_fidelity=0.8
        ))
        assert delivered.delivered
        assert message_system.inbox("wolf")[-1].document["subject"] == "offer"
        refused = env.exchange(ExchangeRequest(
            "ana", "wolf", "faxline", "message-system", doc, min_fidelity=0.99
        ))
        assert not refused.delivered
        assert refused.reason_code == REASON_FIDELITY
        assert env.mediator.stats()["whole_cache_invalidations"] == 0

    def test_min_fidelity_round_trips_the_wire_form(self):
        request = ExchangeRequest(
            "ana", "wolf", "a", "b", {"x": 1}, min_fidelity=0.9
        )
        document = request.to_document()
        assert document["min_fidelity"] == 0.9
        assert ExchangeRequest.from_document(document).min_fidelity == 0.9

    def test_exchange_many_groups_by_floor(self):
        env = make_env(World(seed=3))
        MessageSystem().attach(env)
        env.register_application(
            _fax_descriptor(), lambda person, doc, info: None
        )
        doc = {"fax-title": "t", "fax-body": "b"}
        requests = [
            ExchangeRequest(
                "ana", "wolf", "faxline", "message-system", doc, min_fidelity=floor
            )
            for floor in (0.8, 0.8, 0.99)
        ]
        outcomes = env.exchange_many(requests)
        assert [o.delivered for o in outcomes] == [True, True, False]
        assert outcomes[2].reason_code == REASON_FIDELITY


class TestFederationRelay:
    def test_mediated_plan_metadata_crosses_the_gateway(self):
        world = World(seed=11)
        metrics = MetricsRegistry()
        federation = Federation(world, metrics=metrics, mediation=True)
        federation.add_domain("upc")
        federation.add_domain("gmd")
        federation.open_policies()
        federation.add_person("ana", "upc")
        federation.add_person("bob", "gmd")
        inbox = []
        federation.register_application(
            AppDescriptor(name="app0", quadrants=QUAD, converter=_converter("fmt0")),
            lambda person, doc, info: inbox.append(doc),
        )
        federation.register_application(
            AppDescriptor(name="app1", quadrants=QUAD, converter=_converter("fmt1")),
            lambda person, doc, info: inbox.append(doc),
        )
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", {"fmt0-title": "t", "fmt0-body": "b"}
        ))
        assert outcome.outcome.delivered
        assert metrics.counter("mediation.plan.relayed").value == 1

    def test_same_format_relay_carries_no_plan(self):
        world = World(seed=11)
        metrics = MetricsRegistry()
        federation = Federation(world, metrics=metrics, mediation=True)
        federation.add_domain("upc")
        federation.add_domain("gmd")
        federation.open_policies()
        federation.add_person("ana", "upc")
        federation.add_person("bob", "gmd")
        federation.register_application(
            AppDescriptor(name="app0", quadrants=QUAD, converter=_converter("fmt0")),
            lambda person, doc, info: None,
        )
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app0", {"fmt0-title": "t", "fmt0-body": "b"}
        ))
        assert outcome.outcome.delivered
        assert metrics.counter("mediation.plan.relayed").value == 0
