"""What a gateway relay puts on the wire, and what it parks.

A relay's wire form is the byte charge of every request packet it sends
and the record a dead letter keeps.  The charge is exact: each packet on
a gateway port is charged ``document_size`` of the wire form without its
trace context, whichever path the relay takes (one request or a batched
run, mediated, failed over through an intermediate, redriven) and
whether or not a tracer stamped it.  A parked payload is the one taken
at call time: a caller that mutates its document after the relay was
dead-lettered does not change what a redrive delivers.  The requests
themselves cross in process, every field as the caller gave it except
the deadline, which the origin clamps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.environment.transparency import TransparencyProfile
from repro.federation import Federation
from repro.federation.gateway import GATEWAY_PORT
from repro.information.interchange import FormatConverter, make_common
from repro.obs.context import TRACE_KEY
from repro.obs.tracing import Tracer
from repro.sim.world import World
from repro.util.serialization import document_size

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def converter(index: int) -> FormatConverter:
    key = f"fmt{index}"

    def to_common(document):
        return make_common(
            "note", document.get(f"{key}-title", ""), document.get(f"{key}-body", "")
        )

    def from_common(common):
        return {f"{key}-title": common["title"], f"{key}-body": common["body"]}

    return FormatConverter(key, to_common, from_common)


def make_federation(traced, names=("upc", "gmd"), **options):
    """One person per domain (p-<name>), two apps with distinct formats."""
    world = World(seed=42)
    federation = Federation.partition(
        world,
        {name: [f"p-{name}"] for name in names},
        tracer=Tracer() if traced else None,
        **options,
    )
    inbox: list = []
    for index in (0, 1):
        federation.register_application(
            AppDescriptor(name=f"app{index}", quadrants=QUAD, converter=converter(index)),
            lambda person, document, info: inbox.append((person, document)),
        )
    return world, federation, inbox


def record_gateway_packets(monkeypatch, world):
    """Every request packet on a gateway port, as (charged bytes, the
    wire form's size without trace context, the wire form), taken when
    the packet is sent."""
    sent: list[tuple[int, int, dict]] = []
    send = world.network.send

    def recording(source, destination, port, payload, size_bytes=128):
        packet = send(source, destination, port, payload, size_bytes)
        if port == f"{GATEWAY_PORT}.req" and payload["op"] == "relay":
            body = payload["body"]
            wire = {key: value for key, value in body.items() if key != TRACE_KEY}
            sent.append((packet.size_bytes, document_size(wire), body))
        return packet

    monkeypatch.setattr(world.network, "send", recording)
    return sent


def request(sender, receiver, n=0, **fields):
    document = {"fmt0-title": f"minutes {n}", "fmt0-body": "agenda"}
    return ExchangeRequest(sender, receiver, "app0", "app1", document, **fields)


def assert_exact(sent, legs):
    assert len(sent) == legs
    for charged, wire_size, _ in sent:
        assert charged == wire_size


TRACED = pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])


@TRACED
def test_single_relay_is_charged_its_wire_form(monkeypatch, traced):
    world, federation, inbox = make_federation(traced)
    sent = record_gateway_packets(monkeypatch, world)
    outcome = federation.federated_exchange(request("p-upc", "p-gmd", deadline=30.0))
    assert outcome.delivered
    assert_exact(sent, 1)
    assert (TRACE_KEY in sent[0][2]) is traced


@TRACED
def test_batched_run_is_charged_its_wire_form(monkeypatch, traced):
    world, federation, inbox = make_federation(traced)
    sent = record_gateway_packets(monkeypatch, world)
    outcomes = federation.federated_exchange_many(
        [request("p-upc", "p-gmd", n) for n in range(3)]
    )
    assert all(outcome.delivered for outcome in outcomes)
    assert_exact(sent, 1)
    assert len(sent[0][2]["requests"]) == 3


@TRACED
def test_mediated_relay_is_charged_its_wire_form(monkeypatch, traced):
    world, federation, inbox = make_federation(traced, mediation=True)
    sent = record_gateway_packets(monkeypatch, world)
    assert federation.federated_exchange(request("p-upc", "p-gmd")).delivered
    assert_exact(sent, 1)
    assert "mediation" in sent[0][2]


@TRACED
def test_failover_legs_are_charged_their_wire_form(monkeypatch, traced):
    world, federation, inbox = make_federation(traced, names=("d0", "d1", "d2"))
    federation.domain("d0").gateway_to("d1").breaker.force_open()
    sent = record_gateway_packets(monkeypatch, world)
    outcome = federation.federated_exchange(request("p-d0", "p-d1"))
    assert outcome.delivered
    assert any(hop.role == "relay" for hop in outcome.hops)
    # d0 -> d2, then the forwarded d2 -> d1 leg
    assert_exact(sent, 2)
    assert all(body["final_target"] == "d1" for _, _, body in sent)
    assert sent[0][0] == sent[1][0]


@TRACED
def test_redriven_relay_is_charged_its_wire_form(monkeypatch, traced):
    world, federation, inbox = make_federation(traced)
    sent = record_gateway_packets(monkeypatch, world)
    world.network.node("gw-gmd").crash()
    assert not federation.federated_exchange(request("p-upc", "p-gmd")).delivered
    world.network.node("gw-gmd").recover()
    assert federation.domain("upc").gateway_to("gmd").redrive() == 1
    world.run_for(5.0)
    assert len(inbox) == 1
    # four attempts parked the relay, and the redrive's first got through
    assert_exact(sent, 5)
    assert len({charged for charged, _, _ in sent}) == 1


@TRACED
def test_redrive_delivers_the_document_taken_at_call_time(traced):
    world, federation, inbox = make_federation(traced)
    world.network.node("gw-gmd").crash()
    document = {"fmt0-title": "minutes", "fmt0-body": "agenda"}
    outcome = federation.federated_exchange(
        ExchangeRequest("p-upc", "p-gmd", "app0", "app1", document)
    )
    assert not outcome.delivered
    gateway = federation.domain("upc").gateway_to("gmd")
    [letter] = gateway.dead_letters
    assert letter.payload["receiver"] == "p-gmd"
    document["fmt0-title"] = "changed after the call"
    document["fmt0-extra"] = "added after the call"
    world.network.node("gw-gmd").recover()
    assert gateway.redrive() == 1
    world.run_for(5.0)
    assert inbox == [("p-gmd", {"fmt1-title": "minutes", "fmt1-body": "agenda"})]


def test_requests_cross_in_process_as_the_origin_clamped_them(monkeypatch):
    world, federation, inbox = make_federation(False, default_deadline_s=30.0)
    federation.create_shared_activity("act", "minutes", {"p-upc": "author", "p-gmd": "editor"})
    target = federation.domain("gmd").env
    received: list = []
    exchange = target.exchange

    def recording(request):
        received.append(request)
        return exchange(request)

    monkeypatch.setattr(target, "exchange", recording)
    sent = request(
        "p-upc", "p-gmd", activity_id="act", profile=TransparencyProfile(time=False),
        priority=2, shed_class="minutes", min_fidelity=0.5,
    )
    assert federation.federated_exchange(sent).delivered
    # every field crosses, the deadline clamped by the origin's default
    assert received == [replace(sent, deadline=30.0)]
