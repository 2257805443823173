"""The exchange decision's stage order, pinned through the public surface.

A request that fails two checks gets the reason code of the check the
pipeline decides first.  For every adjacent pair of stages in the order

    deadline -> membership -> organisation-opaque -> policy -> view-opaque
    -> translation/fidelity -> unknown-receiver -> time-opaque -> overload
    -> application-error

each fault alone yields its own code and the two together yield the
earlier one, through ``exchange`` and through ``exchange_many`` on a run
of three.  The cross-domain origin (deadline -> membership ->
organisation/policy, and deadline -> unknown-receiver for a receiver
with no home domain) is pinned the same way, with nothing relayed.
"""

from __future__ import annotations

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_APPLICATION_ERROR,
    REASON_DEADLINE_EXCEEDED,
    REASON_DELIVERED,
    REASON_FIDELITY,
    REASON_MEMBERSHIP,
    REASON_ORGANISATION_OPAQUE,
    REASON_OVERLOAD,
    REASON_POLICY,
    REASON_TIME_OPAQUE,
    REASON_TRANSLATION,
    REASON_UNKNOWN_RECEIVER,
    REASON_VIEW_OPAQUE,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.environment.transparency import TransparencyProfile
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.metrics import MetricsRegistry
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]
DOC = {"title": "minutes", "body": "agenda"}


def converter(name: str, fidelity: float = 1.0) -> FormatConverter:
    return FormatConverter(
        name,
        lambda document: make_common("note", document["title"], document["body"]),
        lambda common: {"title": common["title"], "body": common["body"]},
        fidelity=fidelity,
    )


def _raise(person, document, info):
    raise RuntimeError("inbox full")


def make_env() -> CSCWEnvironment:
    """ana@upc and wolf@gmd under an open message policy, and four apps:
    ``plain`` and ``broken`` (whose callback raises) translate losslessly,
    ``lossy`` keeps half the structure, ``orphan`` has no converter at
    all."""
    world = World(seed=0)
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id, person_id in (("upc", "ana"), ("gmd", "wolf")):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(person_id, person_id.title(), org_id))
        env.knowledge_base.add_organisation(organisation)
        world.network.add_node(f"ws-{person_id}", site=org_id)
        env.register_person(Communicator(person_id, f"ws-{person_id}"))
    env.knowledge_base.policies.declare("upc", "gmd", {INTERACTION_MESSAGE}, symmetric=True)
    noop = lambda person, document, info: None  # noqa: E731
    env.register_application(AppDescriptor("plain", QUAD, converter("plain")), noop)
    env.register_application(AppDescriptor("broken", QUAD, converter("broken")), _raise)
    env.register_application(AppDescriptor("lossy", QUAD, converter("lossy", 0.5)), noop)
    env.register_application(AppDescriptor("orphan", QUAD, native_format="orphan"), noop)
    return env


def _late(env):
    env.world.run_for(5.0)


def _members_only_ana(env):
    env.create_activity("a1", "Review", {"ana": "chair"})


def _revoke(env):
    env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)


def _wolf_away(env):
    env.person_leaves("wolf")


def _queue_full(env):
    env.set_shed_limit(1)
    env.person_leaves("wolf")
    queued = env.exchange(ExchangeRequest("ana", "wolf", "plain", "plain", DOC))
    assert queued.mode == "asynchronous"


#: one fault per stage: (environment setup, request fields, profile
#: dimensions switched off) -> the reason code it yields alone
FAULTS = {
    REASON_DEADLINE_EXCEEDED: (_late, {"deadline": 1.0}, ()),
    REASON_MEMBERSHIP: (_members_only_ana, {"activity_id": "a1"}, ()),
    REASON_ORGANISATION_OPAQUE: (None, {}, ("organisation",)),
    REASON_POLICY: (_revoke, {}, ()),
    REASON_VIEW_OPAQUE: (None, {"receiver_app": "lossy"}, ("view",)),
    REASON_FIDELITY: (None, {"receiver_app": "lossy", "min_fidelity": 0.9}, ()),
    REASON_TRANSLATION: (None, {"receiver_app": "orphan"}, ()),
    REASON_UNKNOWN_RECEIVER: (None, {"receiver": "ghost"}, ()),
    REASON_TIME_OPAQUE: (_wolf_away, {}, ("time",)),
    REASON_OVERLOAD: (_queue_full, {}, ()),
    REASON_APPLICATION_ERROR: (None, {"receiver_app": "broken"}, ()),
}

#: adjacent stages, earlier first
PAIRS = [
    (REASON_DEADLINE_EXCEEDED, REASON_MEMBERSHIP),
    (REASON_MEMBERSHIP, REASON_ORGANISATION_OPAQUE),
    (REASON_ORGANISATION_OPAQUE, REASON_POLICY),
    (REASON_POLICY, REASON_VIEW_OPAQUE),
    (REASON_VIEW_OPAQUE, REASON_FIDELITY),
    (REASON_FIDELITY, REASON_UNKNOWN_RECEIVER),
    (REASON_TRANSLATION, REASON_UNKNOWN_RECEIVER),
    (REASON_UNKNOWN_RECEIVER, REASON_TIME_OPAQUE),
    (REASON_TIME_OPAQUE, REASON_OVERLOAD),
    (REASON_OVERLOAD, REASON_APPLICATION_ERROR),
]


def _scenario(*codes: str):
    """The setups and the request of the named faults, combined."""
    setups = []
    fields = {"sender": "ana", "receiver": "wolf", "sender_app": "plain",
              "receiver_app": "plain", "document": DOC}
    off: dict[str, bool] = {}
    for code in codes:
        setup, request_fields, dimensions = FAULTS[code]
        if setup is not None:
            setups.append(setup)
        fields.update(request_fields)
        off.update(dict.fromkeys(dimensions, False))
    if off:
        fields["profile"] = TransparencyProfile(**off)
    return setups, ExchangeRequest(**fields)


def _codes(*faults: str) -> list[list[str]]:
    """Reason codes of the combined faults: one ``exchange``, then a run
    of three through ``exchange_many``, each on a fresh environment."""
    results = []
    for batch in (1, 3):
        env = make_env()
        setups, request = _scenario(*faults)
        for setup in setups:
            setup(env)
        if batch == 1:
            outcomes = [env.exchange(request)]
        else:
            outcomes = env.exchange_many([request] * batch)
        assert all(not outcome.delivered for outcome in outcomes)
        results.append([outcome.reason_code for outcome in outcomes])
    return results


@pytest.mark.parametrize("code", sorted(FAULTS))
def test_each_fault_alone_yields_its_own_code(code):
    assert _codes(code) == [[code], [code] * 3]


@pytest.mark.parametrize(("earlier", "later"), PAIRS, ids=lambda code: code)
def test_earlier_stage_decides(earlier, later):
    assert _codes(earlier, later) == [[earlier], [earlier] * 3]


def test_unknown_sender_takes_a_same_organisation_route():
    """A sender the knowledge base does not know resolves to a
    same-organisation route: organisation transparency and policy are
    never consulted, so neither refusal fires."""
    for batch in (1, 3):
        env = make_env()
        _revoke(env)
        request = ExchangeRequest(
            "stranger", "wolf", "plain", "plain", DOC,
            profile=TransparencyProfile(organisation=False),
        )
        outcomes = env.exchange_many([request] * batch)
        assert [outcome.reason_code for outcome in outcomes] == [REASON_DELIVERED] * batch
        assert all("organisation" not in outcome.handled for outcome in outcomes)


def test_a_raising_bus_subscriber_stays_out_of_the_batch():
    """A subscriber on the ``exchange`` topic that raises for one request
    is isolated by the bus: the batch returns both outcomes, and the
    counts agree with them."""
    env = make_env()

    def fail_on_broken(event):
        if event.source == "broken":
            raise ZeroDivisionError("subscriber fault")

    env.bus.subscribe("exchange", fail_on_broken)
    ok = ExchangeRequest("ana", "wolf", "plain", "plain", DOC)
    bad = ExchangeRequest("ana", "wolf", "broken", "plain", DOC)
    outcomes = env.exchange_many([ok, bad])
    assert [outcome.reason_code for outcome in outcomes] == [REASON_DELIVERED] * 2
    delivered = sum(outcome.delivered for outcome in outcomes)
    assert env.exchanges_attempted == 2
    assert env.exchanges_attempted == delivered + env.exchanges_failed


# -- the cross-domain origin -------------------------------------------------


def make_federation(
    open_policies: bool = True, metrics: MetricsRegistry | None = None
) -> Federation:
    """ana and cleo@upc and bob@gmd, one app on each side of a gateway."""
    federation = Federation(World(seed=0), metrics=metrics)
    federation.add_domain("upc")
    federation.add_domain("gmd")
    if open_policies:
        federation.open_policies()
    federation.add_person("ana", "upc")
    federation.add_person("cleo", "upc")
    federation.add_person("bob", "gmd")
    federation.register_application(
        AppDescriptor("plain", QUAD, converter("plain")), lambda *args: None
    )
    return federation


#: origin faults: (federation setup, request fields, dimensions off)
ORIGIN_FAULTS = {
    REASON_DEADLINE_EXCEEDED: (
        lambda federation: federation.world.run_for(5.0), {"deadline": 1.0}, ()
    ),
    REASON_MEMBERSHIP: (
        lambda federation: federation.create_shared_activity(
            "a1", "Review", {"ana": "chair"}
        ),
        {"activity_id": "a1"},
        (),
    ),
    REASON_ORGANISATION_OPAQUE: (None, {}, ("organisation",)),
    REASON_POLICY: (None, {}, ()),
    REASON_UNKNOWN_RECEIVER: (None, {"receiver": "ghost"}, ()),
}

ORIGIN_PAIRS = [
    (REASON_DEADLINE_EXCEEDED, REASON_MEMBERSHIP),
    (REASON_DEADLINE_EXCEEDED, REASON_UNKNOWN_RECEIVER),
    (REASON_MEMBERSHIP, REASON_ORGANISATION_OPAQUE),
    (REASON_ORGANISATION_OPAQUE, REASON_POLICY),
]


def _origin_codes(*faults: str, receiver: str = "bob") -> list[list[str]]:
    """Reason codes of the combined origin faults on ana -> *receiver*
    (bob across the gateway, cleo at home; the unknown-receiver fault
    swaps in a ghost with no home): one ``federated_exchange``, then a
    run of three, with no relay sent.  The origin's ``env.federation.*``
    counters agree with the codes."""
    results = []
    for batch in (1, 3):
        metrics = MetricsRegistry()
        federation = make_federation(REASON_POLICY not in faults, metrics)
        fields = {"sender": "ana", "receiver": receiver, "sender_app": "plain",
                  "receiver_app": "plain", "document": DOC}
        off: dict[str, bool] = {}
        for code in faults:
            setup, request_fields, dimensions = ORIGIN_FAULTS[code]
            if setup is not None:
                setup(federation)
            fields.update(request_fields)
            off.update(dict.fromkeys(dimensions, False))
        if off:
            fields["profile"] = TransparencyProfile(**off)
        request = ExchangeRequest(**fields)
        if batch == 1:
            outcomes = [federation.federated_exchange(request)]
        else:
            outcomes = federation.federated_exchange_many([request] * batch)
        assert federation.domain("upc").gateway_to("gmd").relays == 0
        assert all(outcome.origin == "upc" for outcome in outcomes)
        codes = [outcome.reason_code for outcome in outcomes]
        counters = metrics.snapshot()["counters"]
        expired = codes.count(REASON_DEADLINE_EXCEEDED)
        assert counters.get("env.federation.expired", 0) == expired
        remote = batch - expired if request.receiver == "bob" else 0
        assert counters.get("env.federation.remote", 0) == remote
        unknown = codes.count(REASON_UNKNOWN_RECEIVER)
        assert counters.get("env.federation.unknown_receiver", 0) == unknown
        results.append(codes)
    return results


@pytest.mark.parametrize("code", sorted(ORIGIN_FAULTS))
def test_each_origin_fault_alone_is_decided_before_any_relay(code):
    assert _origin_codes(code) == [[code], [code] * 3]


@pytest.mark.parametrize(("earlier", "later"), ORIGIN_PAIRS, ids=lambda code: code)
def test_earlier_origin_stage_decides(earlier, later):
    assert _origin_codes(earlier, later) == [[earlier], [earlier] * 3]


@pytest.mark.parametrize(
    ("faults", "code"),
    [((REASON_DEADLINE_EXCEEDED,), REASON_DEADLINE_EXCEEDED), ((), REASON_DELIVERED)],
    ids=["deadline", "delivered"],
)
def test_local_run_is_decided_by_the_same_origin_stage(faults, code):
    """A run that stays home has its deadline decided by the origin
    stage too, before the home environment's pipeline takes the rest."""
    assert _origin_codes(*faults, receiver="cleo") == [[code], [code] * 3]


def test_an_unknown_activity_is_a_membership_refusal():
    """An ``activity_id`` no registry holds fails stage 2 like a
    non-member does: the batch still ends in one outcome per request,
    and the environment's counters agree with the outcomes."""
    env = make_env()
    plain = ExchangeRequest("ana", "wolf", "plain", "plain", DOC)
    stray = ExchangeRequest("ana", "wolf", "plain", "plain", DOC, activity_id="zz")
    outcomes = env.exchange_many([plain, stray])
    assert [outcome.reason_code for outcome in outcomes] == [REASON_DELIVERED, REASON_MEMBERSHIP]
    assert outcomes[1].reason == "unknown activity 'zz'"
    assert env.exchanges_attempted == len(outcomes)
    assert env.exchanges_failed == sum(not outcome.delivered for outcome in outcomes)


def test_a_member_who_joined_through_one_domain_is_a_member_everywhere():
    """A federation has one activity registry: cleo joining ``a1``
    through ``upc``'s environment is seen by ``gmd``'s, so her exchange
    with bob across the gateway is delivered, as it is with ana at home."""
    federation = make_federation()
    federation.create_shared_activity("a1", "Review", {"ana": "chair", "bob": "member"})
    federation.domain("upc").env.activities.get("a1").join("cleo")
    for receiver in ("bob", "ana"):
        outcome = federation.federated_exchange(ExchangeRequest(
            "cleo", receiver, "plain", "plain", DOC, activity_id="a1"
        ))
        assert outcome.reason_code == REASON_DELIVERED, outcome.outcome.reason
    assert federation.domain("upc").gateway_to("gmd").relays == 1
