"""Multi-domain federation: gateways, federated exchange, invalidation.

The acceptance bar for the subsystem: a 2-domain federated exchange has
outcome field-parity with a single-domain exchange (same reason codes on
the same failure classes), a severed gateway link yields retries and
then a dead-letter outcome, and a moved person never gets a stale
resolution verdict served from their old domain's cache.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_MEMBERSHIP,
    REASON_ORGANISATION_OPAQUE,
    REASON_POLICY,
    REASON_UNKNOWN_RECEIVER,
    REASON_VIEW_OPAQUE,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.environment.transparency import TransparencyProfile
from repro.federation import (
    REASON_GATEWAY_DEAD_LETTER,
    Federation,
    Gateway,
)
from repro.federation.federation import SHADOW_PERIOD_S
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.odp.objects import InterfaceRef
from repro.org.model import Organisation, Person
from repro.sim.world import World
from repro.util.errors import ConfigurationError, UnknownObjectError

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]

DOC = {"fmt0-title": "minutes", "fmt0-body": "agenda"}


def converter(index: int) -> FormatConverter:
    key = f"fmt{index}"

    def to_common(document):
        return make_common(
            "note", document.get(f"{key}-title", ""), document.get(f"{key}-body", "")
        )

    def from_common(common):
        return {f"{key}-title": common["title"], f"{key}-body": common["body"]}

    return FormatConverter(key, to_common, from_common)


def outcome_fields(outcome: ExchangeOutcome) -> dict:
    """All outcome fields except the (per-span) trace id."""
    return {
        f.name: getattr(outcome, f.name)
        for f in fields(outcome)
        if f.name != "trace_id"
    }


def make_federation(world, open_policies=True, metrics=None, **options):
    """Two domains, ana@upc and bob@gmd, two apps with distinct formats."""
    federation = Federation(world, metrics=metrics, **options)
    federation.add_domain("upc")
    federation.add_domain("gmd")
    if open_policies:
        federation.open_policies()
    federation.add_person("ana", "upc", name="Ana Lopez")
    federation.add_person("bob", "gmd", name="Bob Meier")
    inboxes: dict[str, list] = {"app0": [], "app1": []}
    for index in (0, 1):
        name = f"app{index}"
        federation.register_application(
            AppDescriptor(name=name, quadrants=QUAD, converter=converter(index)),
            lambda person, doc, info, name=name: inboxes[name].append((person, doc)),
        )
    return federation, inboxes


def make_single_env(world, open_policies=True):
    """The single-domain twin of make_federation, for parity checks."""
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id, person in (("upc", ("ana", "Ana Lopez")), ("gmd", ("bob", "Bob Meier"))):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(person[0], person[1], org_id))
        env.knowledge_base.add_organisation(organisation)
        node = f"ws-{person[0]}"
        world.network.add_node(node, site=org_id)
        env.register_person(Communicator(person[0], node))
    if open_policies:
        env.knowledge_base.policies.declare("upc", "gmd", {"*"}, symmetric=True)
    inbox: list = []
    for index in (0, 1):
        env.register_application(
            AppDescriptor(name=f"app{index}", quadrants=QUAD, converter=converter(index)),
            lambda person, doc, info: inbox.append((person, doc)),
        )
    return env, inbox


class TestTopology:
    def test_pairwise_wiring(self, world):
        federation, _ = make_federation(world)
        upc, gmd = federation.domain("upc"), federation.domain("gmd")
        assert upc.naming.federated_domains() == ["gmd"]
        assert gmd.naming.federated_domains() == ["upc"]
        assert upc.trader.links() == ["gmd"]
        assert gmd.trader.links() == ["upc"]
        assert isinstance(upc.gateway_to("gmd"), Gateway)
        assert isinstance(gmd.gateway_to("upc"), Gateway)
        assert set(federation.shadowing) == {("upc", "gmd"), ("gmd", "upc")}

    def test_duplicate_domain_rejected(self, world):
        federation, _ = make_federation(world)
        with pytest.raises(ConfigurationError):
            federation.add_domain("upc")

    def test_unknown_domain_rejected(self, world):
        federation, _ = make_federation(world)
        with pytest.raises(UnknownObjectError):
            federation.domain("ghost")

    def test_home_resolution_via_federated_naming(self, world):
        federation, _ = make_federation(world)
        assert federation.home_of("ana") == "upc"
        assert federation.home_of("bob") == "gmd"
        # cold lookup (memo cleared) still resolves over the federation
        federation._home_cache.clear()
        assert federation.home_of("bob") == "gmd"
        with pytest.raises(UnknownObjectError):
            federation.home_of("ghost")

    def test_every_kb_knows_every_person(self, world):
        federation, _ = make_federation(world)
        for domain in federation.domains():
            assert domain.env.knowledge_base.organisation_of("ana") == "upc"
            assert domain.env.knowledge_base.organisation_of("bob") == "gmd"

    def test_describe_covers_domains_people_gateways(self, world):
        federation, _ = make_federation(world)
        snapshot = federation.describe()
        assert set(snapshot["domains"]) == {"upc", "gmd"}
        assert snapshot["people"] == {"ana": "upc", "bob": "gmd"}
        assert "gmd" in snapshot["domains"]["upc"]["gateways"]


class TestCrossDomainExchange:
    def test_cross_domain_delivery_with_translation(self, world):
        federation, inboxes = make_federation(world)
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert outcome.delivered
        assert outcome.cross_domain
        assert outcome.mode == "synchronous"
        assert outcome.outcome.translated
        assert outcome.outcome.handled == ("organisation", "view")
        assert inboxes["app1"] == [("bob", {"fmt1-title": "minutes", "fmt1-body": "agenda"})]

    def test_reverse_direction_round_trip(self, world):
        federation, inboxes = make_federation(world)
        out = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        back = federation.federated_exchange(ExchangeRequest(
            "bob", "ana", "app1", "app0", {"fmt1-title": "pong", "fmt1-body": "y"}
        ))
        assert (out.origin, out.target) == ("upc", "gmd")
        assert back.delivered and back.cross_domain
        assert (back.origin, back.target) == ("gmd", "upc")
        assert inboxes["app0"] == [("ana", {"fmt0-title": "pong", "fmt0-body": "y"})]

    def test_delivered_outcome_parity_with_single_domain(self, world):
        federation, _ = make_federation(world)
        federated = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        env, _ = make_single_env(World(seed=42))
        local = env.exchange(ExchangeRequest("ana", "bob", "app0", "app1", DOC))
        assert outcome_fields(federated.outcome) == outcome_fields(local)

    def test_intra_domain_exchange_stays_local(self, world):
        federation, inboxes = make_federation(world)
        federation.add_person("carla", "upc")
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "carla", "app0", "app1", DOC
        ))
        assert outcome.delivered
        assert not outcome.cross_domain
        assert [hop.role for hop in outcome.hops] == ["local"]
        assert federation.domain("upc").gateway_to("gmd").stats()["relays"] == 0

    def test_hop_metadata_and_latency(self, world):
        federation, _ = make_federation(world)
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert [hop.role for hop in outcome.hops] == ["origin", "deliver", "reply"]
        assert [hop.domain for hop in outcome.hops] == ["upc", "gmd", "upc"]
        origin, deliver, reply = outcome.hops
        assert origin.time <= deliver.time <= reply.time
        assert outcome.latency_s == reply.time - origin.time
        assert outcome.latency_s > 0  # the WAN link charges real latency
        assert outcome.attempts == 1

    def test_unknown_receiver_reason_code_parity(self, world):
        federation, _ = make_federation(world)
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "ghost", "app0", "app1", DOC
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_UNKNOWN_RECEIVER


class TestFailureParity:
    """Federated failure paths carry the single-domain reason codes."""

    def _parity(self, federated_outcome, single_outcome, code):
        assert not federated_outcome.delivered
        assert federated_outcome.reason_code == code
        assert outcome_fields(federated_outcome.outcome) == outcome_fields(single_outcome)

    def test_membership_failure(self, world):
        federation, _ = make_federation(world)
        federation.create_shared_activity("a1", "Review", {"ana": "chair"})
        federated = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, activity_id="a1"
        ))
        env, _ = make_single_env(World(seed=42))
        env.create_activity("a1", "Review", {"ana": "chair"})
        local = env.exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, activity_id="a1"
        ))
        self._parity(federated, local, REASON_MEMBERSHIP)

    def test_organisation_opaque_failure(self, world):
        profile = TransparencyProfile.all_on().without("organisation")
        federation, _ = make_federation(world)
        federated = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, profile=profile
        ))
        env, _ = make_single_env(World(seed=42))
        local = env.exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, profile=profile
        ))
        self._parity(federated, local, REASON_ORGANISATION_OPAQUE)

    def test_policy_failure(self, world):
        federation, _ = make_federation(world, open_policies=False)
        federated = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        env, _ = make_single_env(World(seed=42), open_policies=False)
        local = env.exchange(ExchangeRequest("ana", "bob", "app0", "app1", DOC))
        self._parity(federated, local, REASON_POLICY)

    def test_view_opaque_failure_decided_at_target(self, world):
        """The view check runs in the target environment, over the relay."""
        profile = TransparencyProfile.all_on().without("view")
        federation, _ = make_federation(world)
        federated = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, profile=profile
        ))
        env, _ = make_single_env(World(seed=42))
        local = env.exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC, profile=profile
        ))
        self._parity(federated, local, REASON_VIEW_OPAQUE)
        # the payload did cross the gateway before failing at the target
        assert federation.domain("upc").gateway_to("gmd").stats()["delivered"] == 1


class TestGatewayFailure:
    def test_severed_link_retries_then_dead_letters(self, world):
        federation, inboxes = make_federation(world)
        world.network.node("gw-gmd").crash()
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert not outcome.delivered
        assert outcome.reason_code == REASON_GATEWAY_DEAD_LETTER
        assert outcome.attempts == 4  # the configured attempt budget
        gateway = federation.domain("upc").gateway_to("gmd")
        assert gateway.stats() == {
            "relays": 1, "delivered": 0, "retries": 3, "dead_letters": 1,
        }
        letter = gateway.dead_letters[0]
        assert letter.target == "gmd"
        assert letter.payload["receiver"] == "bob"
        assert inboxes["app1"] == []

    def test_redrive_after_heal_delivers_parked_payload(self, world):
        federation, inboxes = make_federation(world)
        world.network.node("gw-gmd").crash()
        federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        world.network.node("gw-gmd").recover()
        gateway = federation.domain("upc").gateway_to("gmd")
        assert gateway.redrive() == 1
        world.run_for(5.0)
        assert inboxes["app1"] == [
            ("bob", {"fmt1-title": "minutes", "fmt1-body": "agenda"})
        ]
        # a second redrive has nothing left to push
        assert gateway.redrive() == 0

    def test_retry_masks_transient_outage(self, world):
        """A target that comes back mid-retry still gets the payload."""
        federation, inboxes = make_federation(
            world, gateway_retry_s=0.5, gateway_attempts=5
        )
        world.network.node("gw-gmd").crash()
        world.engine.schedule(1.2, world.network.node("gw-gmd").recover)
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert outcome.delivered
        assert outcome.attempts > 1
        assert federation.domain("upc").gateway_to("gmd").stats()["retries"] >= 1

    def test_retried_relay_is_sized_once(self, world, monkeypatch):
        """Every attempt of one relay sends the size taken at admission."""
        import repro.federation.gateway as gateway_module

        federation, inboxes = make_federation(
            world, gateway_retry_s=0.5, gateway_attempts=5
        )
        sized: list[int] = []
        size = gateway_module.document_size

        def counting_size(document):
            sized.append(size(document))
            return sized[-1]

        monkeypatch.setattr(gateway_module, "document_size", counting_size)
        rpc = federation.domain("upc").gateway_rpc
        sent: list[tuple[str, int]] = []
        request = rpc.request

        def recording_request(server, operation, body, **kwargs):
            sent.append((body["relay_id"], kwargs["size_bytes"]))
            return request(server, operation, body, **kwargs)

        monkeypatch.setattr(rpc, "request", recording_request)
        world.network.node("gw-gmd").crash()
        world.engine.schedule(1.2, world.network.node("gw-gmd").recover)
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert outcome.delivered
        assert outcome.attempts == len(sent) > 1
        assert len(sized) == 1
        assert {relay_id for relay_id, _ in sent} == {sent[0][0]}
        assert [nbytes for _, nbytes in sent] == sized * len(sent)
        assert inboxes["app1"] == [
            ("bob", {"fmt1-title": "minutes", "fmt1-body": "agenda"})
        ]


class TestMovePerson:
    def test_no_stale_verdict_after_move(self, world):
        """Domain A's resolution cache must drop verdicts when a person
        moves to domain B — the cross-domain invalidation contract."""
        federation, _ = make_federation(world)
        upc_env = federation.domain("upc").env
        before = upc_env.resolution.route("ana", "bob", "message")
        assert before.cross_org and before.receiver_org == "gmd"
        federation.move_person("bob", "upc")
        after = upc_env.resolution.route("ana", "bob", "message")
        assert after.receiver_org == "upc"
        assert not after.cross_org

    def test_exchange_routes_to_new_home(self, world):
        federation, inboxes = make_federation(world)
        assert federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        )).cross_domain
        federation.move_person("bob", "upc")
        outcome = federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        assert outcome.delivered
        assert not outcome.cross_domain
        assert federation.home_of("bob") == "upc"
        assert len(inboxes["app1"]) == 2

    def test_move_updates_naming_and_kbs_everywhere(self, world):
        federation, _ = make_federation(world)
        federation.move_person("bob", "upc")
        upc, gmd = federation.domain("upc"), federation.domain("gmd")
        assert "bob" in upc.people and "bob" not in gmd.people
        # the binding migrated: resolvable locally at upc, gone from gmd
        assert upc.naming.resolve("people/bob").interface == "communicator"
        for domain in federation.domains():
            assert domain.env.knowledge_base.organisation_of("bob") == "upc"

    def test_move_to_same_domain_is_noop(self, world):
        federation, _ = make_federation(world)
        person = federation.move_person("bob", "gmd")
        assert person.organisation == "gmd"
        assert federation.home_of("bob") == "gmd"


class TestDirectoryShadowing:
    def test_peer_directories_converge(self, world):
        federation, _ = make_federation(world)
        federation.publish_directories()
        federation.start_shadowing()
        world.run_for(SHADOW_PERIOD_S * 2 + 5.0)
        federation.stop_shadowing()
        upc, gmd = federation.domain("upc"), federation.domain("gmd")
        # each DSA has shadowed the peer's published entries
        assert upc.dsa.dit.exists("cn=Bob Meier,o=GMD,c=ES")
        assert gmd.dsa.dit.exists("cn=Ana Lopez,o=UPC,c=ES")
        agreement = federation.shadowing[("upc", "gmd")]
        assert agreement.syncs >= 1 and agreement.failed_pulls == 0


class TestCrossDomainTrading:
    def test_import_falls_back_over_domain_link(self, world):
        federation, _ = make_federation(world)
        ref = InterfaceRef("gw-gmd", "print-svc", "printing")
        federation.domain("gmd").trader.export("printing", ref, exporter="gmd")
        offer = federation.import_service("upc", "printing")
        assert offer.ref.node == "gw-gmd"

    def test_revoked_domain_link_hides_offers(self, world):
        from repro.util.errors import NoOfferError

        federation, _ = make_federation(world)
        ref = InterfaceRef("gw-gmd", "print-svc", "printing")
        federation.domain("gmd").trader.export("printing", ref, exporter="gmd")
        federation.domain("upc").trader.unlink("gmd")
        with pytest.raises(NoOfferError):
            federation.import_service("upc", "printing")


class TestFederationMetrics:
    def test_exchange_and_gateway_counters(self, world):
        registry = MetricsRegistry()
        federation, _ = make_federation(world, metrics=registry)
        federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        federation.add_person("carla", "upc")
        federation.federated_exchange(ExchangeRequest(
            "ana", "carla", "app0", "app1", DOC
        ))
        counters = registry.snapshot()["counters"]
        assert counters["env.federation.exchanges"] == 2
        assert counters["env.federation.remote"] == 1
        assert counters["env.federation.local"] == 1
        assert counters["env.federation.delivered"] == 1
        assert counters["gateway.relays"] == 1
        assert counters["gateway.delivered"] == 1
        assert counters["gateway.inbound"] == 1
        assert registry.snapshot()["histograms"]["env.federation.relay_latency_s"]["count"] == 1

    def test_dead_letter_counters(self, world):
        registry = MetricsRegistry()
        federation, _ = make_federation(world, metrics=registry)
        world.network.node("gw-gmd").crash()
        federation.federated_exchange(ExchangeRequest(
            "ana", "bob", "app0", "app1", DOC
        ))
        counters = registry.snapshot()["counters"]
        assert counters["env.federation.dead_letters"] == 1
        assert counters["gateway.dead_letters"] == 1
        assert counters["gateway.retries"] == 3


class TestUnifiedCallSurface:
    """ExchangeRequest is the single exchange currency, shims included."""

    def test_keyword_shim_matches_request_form(self):
        from repro.environment.environment import ExchangeRequest

        results = []
        for style in ("kwargs", "request"):
            world = World(seed=77)
            federation, _ = make_federation(world)
            if style == "kwargs":
                outcome = federation.federated_exchange(ExchangeRequest(
                    "ana", "bob", "app0", "app1", DOC
                ))
            else:
                outcome = federation.federated_exchange(
                    ExchangeRequest(
                        sender="ana",
                        receiver="bob",
                        sender_app="app0",
                        receiver_app="app1",
                        document=DOC,
                    )
                )
            results.append(
                (
                    outcome_fields(outcome.outcome),
                    outcome.origin,
                    outcome.target,
                    outcome.attempts,
                    outcome.latency_s,
                )
            )
        assert results[0] == results[1], (
            "keyword shim and request form must produce identical outcomes"
        )

    def test_exchange_many_preserves_order_and_batches_runs(self, world):
        from repro.environment.environment import ExchangeRequest

        registry = MetricsRegistry()
        federation, inboxes = make_federation(world, metrics=registry)
        federation.add_person("carol", "upc", name="Carol Diaz")

        def request(sender, receiver, n):
            return ExchangeRequest(
                sender=sender,
                receiver=receiver,
                sender_app="app0",
                receiver_app="app1",
                document={"fmt0-title": f"m{n}", "fmt0-body": "b"},
            )

        assert federation.federated_exchange_many([]) == []
        outcomes = federation.federated_exchange_many(
            [
                request("ana", "bob", 0),   # upc->gmd ┐ one consecutive run,
                request("ana", "bob", 1),   # upc->gmd ┘ shipped as ONE relay
                request("ana", "carol", 2), # intra-domain fast path
                request("bob", "ana", 3),   # gmd->upc, its own relay
            ]
        )
        assert [o.delivered for o in outcomes] == [True] * 4
        # Outcomes come back in request order with correct routing.
        assert [(o.origin, o.target) for o in outcomes] == [
            ("upc", "gmd"), ("upc", "gmd"), ("upc", "upc"), ("gmd", "upc"),
        ]
        # The consecutive same-route pair crossed the wire as one relay.
        assert federation.domain("upc").gateway_to("gmd").relays == 1
        assert federation.domain("gmd").gateway_to("upc").relays == 1
        # Every document arrived, translated, exactly once.
        titles = sorted(doc["fmt1-title"] for _, doc in inboxes["app1"])
        assert titles == ["m0", "m1", "m2", "m3"]
        counters = registry.snapshot()["counters"]
        assert counters["env.federation.exchanges"] == 4
        assert counters["env.federation.remote"] == 3
        assert counters["env.federation.local"] == 1


class TestBatchedFastPath:
    """Regressions for the federated batch fast path (intra-run batching
    and mid-batch re-homing)."""

    def test_intra_run_is_one_batched_pipeline_call(self, world):
        """An intra-domain run rides the home env's batched exchange_many
        — one pipeline entry per run — with per-request field parity."""
        from repro.environment.environment import ExchangeRequest

        registry = MetricsRegistry()
        federation, inboxes = make_federation(world, metrics=registry)
        federation.add_person("carol", "upc", name="Carol Diaz")
        env = federation.domain("upc").env

        def request(n):
            return ExchangeRequest(
                sender="ana",
                receiver="carol",
                sender_app="app0",
                receiver_app="app1",
                document={"fmt0-title": f"m{n}", "fmt0-body": "b"},
            )

        # per-request baseline first (intra exchanges don't advance sim
        # time, so outcomes are directly comparable)
        baseline = [federation.federated_exchange(request(n)) for n in range(3)]

        batched_calls = []
        original = env.exchange_many

        def counting_exchange_many(requests):
            batched_calls.append(len(requests))
            return original(requests)

        env.exchange_many = counting_exchange_many
        try:
            outcomes = federation.federated_exchange_many(
                [request(n) for n in range(3)]
            )
        finally:
            env.exchange_many = original

        # the whole run entered the pipeline as ONE batched call
        assert batched_calls == [3]
        assert [outcome_fields(o.outcome) for o in outcomes] == [
            outcome_fields(o.outcome) for o in baseline
        ]
        assert [
            (o.origin, o.target, o.latency_s, o.attempts) for o in outcomes
        ] == [(o.origin, o.target, o.latency_s, o.attempts) for o in baseline]
        assert [len(o.hops) for o in outcomes] == [1, 1, 1]
        # six deliveries total (baseline + batch), all translated
        assert len(inboxes["app1"]) == 6
        counters = registry.snapshot()["counters"]
        assert counters["env.federation.local"] == 6

    def test_move_person_mid_batch_reroutes_remainder(self, world):
        """A delivery callback that re-homes the receiver mid-run: the
        hoisted routes are not served stale — the rest of the run
        re-dispatches to the new home domain."""
        from repro.environment.environment import ExchangeRequest

        federation, _ = make_federation(world)
        federation.add_person("dave", "upc", name="Dave Kim")
        received: list[str] = []

        def deliver(person, doc, info):
            received.append(doc["fmt2-title"])
            if len(received) == 1:
                # first delivery re-homes dave: the batch dispatched the
                # whole run to upc under the old route
                federation.move_person("dave", "gmd")

        federation.register_application(
            AppDescriptor(name="app2", quadrants=QUAD, converter=converter(2)),
            deliver,
        )

        outcomes = federation.federated_exchange_many(
            [
                ExchangeRequest(
                    sender="ana",
                    receiver="dave",
                    sender_app="app0",
                    receiver_app="app2",
                    document={"fmt0-title": f"m{n}", "fmt0-body": "b"},
                )
                for n in range(3)
            ]
        )
        assert [o.delivered for o in outcomes] == [True] * 3
        # first delivery happened at the old home; the rest re-routed
        assert (outcomes[0].origin, outcomes[0].target) == ("upc", "upc")
        assert [(o.origin, o.target) for o in outcomes[1:]] == [
            ("upc", "gmd"), ("upc", "gmd"),
        ]
        assert all(o.cross_domain for o in outcomes[1:])
        # the re-dispatched remainder crossed the wire as one relay
        assert federation.domain("upc").gateway_to("gmd").relays == 1
        assert received == ["m0", "m1", "m2"]
        assert federation.home_of("dave") == "gmd"
