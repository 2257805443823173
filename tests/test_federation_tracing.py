"""Cross-domain trace propagation and trace-correlated events.

Acceptance bar (ISSUE 5): a federated exchange yields **one** connected
trace — every span in every domain it touched shares the origin's
trace id with correct parent links — even when a tripped breaker
reroutes the relay through an intermediate domain; the returned
``ExchangeOutcome.trace_id`` equals the origin span's trace id
(regression for the relay path that used to drop it); and the critical
path explains >= 95% of the end-to-end simulated duration.
"""

from __future__ import annotations

import pytest

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.analyze import TraceAnalyzer
from repro.obs.events import (
    KIND_BREAKER_OPEN,
    KIND_DEAD_LETTER,
    KIND_DEADLINE,
    KIND_HEALTH_TRANSITION,
    KIND_REDRIVE,
    EventLog,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim.network import LinkSpec
from repro.sim.world import World

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]
DOC = {"title": "minutes", "body": "agenda"}


def converter() -> FormatConverter:
    def to_common(document):
        return make_common("note", document.get("title", ""), document.get("body", ""))

    def from_common(common):
        return {"title": common["title"], "body": common["body"]}

    return FormatConverter("fmt", to_common, from_common)


def make_federation(world, names=("upc", "gmd"), **options):
    """Traced federation: one person per domain (p-<name>), one app."""
    tracer = options.setdefault("tracer", Tracer())
    events = options.setdefault("events", EventLog())
    assignment = {name: [f"p-{name}"] for name in names}
    federation = Federation.partition(
        world, assignment, metrics=MetricsRegistry(), **options
    )
    federation.register_application(
        AppDescriptor(name="app0", quadrants=QUAD, converter=converter()),
        lambda person, document, info: None,
    )
    return federation, tracer, events


def origin_root(tracer):
    """The origin-side root span of the (single) federated exchange."""
    [root] = [s for s in tracer.finished() if s.name == "federation.exchange"]
    return root


class TestDirectExchangeTrace:
    def test_outcome_trace_id_is_the_origin_trace(self, world):
        """Regression: the relay reply used to rebuild the outcome with
        ``trace_id=""`` — the cross-domain outcome must carry the origin
        trace id, same as a local exchange."""
        federation, tracer, _ = make_federation(world)
        result = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert result.delivered
        root = origin_root(tracer)
        assert result.outcome.trace_id == root.trace_id
        assert root.trace_id  # non-empty: a real trace was recorded

    def test_one_connected_trace_with_correct_parent_links(self, world):
        federation, tracer, _ = make_federation(world)
        federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        root = origin_root(tracer)
        spans = [s for s in tracer.finished() if s.trace_id == root.trace_id]
        by_name = {s.name: s for s in spans}
        # origin root -> gateway hop -> target-side relay handler -> exchange
        assert by_name["gateway.relay"].parent_id == root.span_id
        assert by_name["federation.relay"].parent_id == by_name["gateway.relay"].span_id
        assert by_name["env.exchange"].parent_id == by_name["federation.relay"].span_id
        analyzer = TraceAnalyzer(spans)
        assert analyzer.is_connected(root.trace_id)

    def test_untraced_federation_still_exchanges(self, world):
        federation, _, _ = make_federation(world, tracer=None, events=None)
        result = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert result.delivered
        assert result.outcome.trace_id == ""

    def test_distinct_exchanges_get_distinct_traces(self, world):
        federation, tracer, _ = make_federation(world)
        first = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        second = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert first.outcome.trace_id != second.outcome.trace_id
        analyzer = TraceAnalyzer(tracer.finished())
        assert len(analyzer.trace_ids()) == 2
        assert all(analyzer.is_connected(t) for t in analyzer.trace_ids())


class TestFailoverTrace:
    def failover(self, world):
        federation, tracer, events = make_federation(
            world, names=("d0", "d1", "d2")
        )
        federation.domain("d0").gateway_to("d1").breaker.force_open()
        result = federation.federated_exchange(ExchangeRequest(
            "p-d0", "p-d1", "app0", "app0", DOC
        ))
        return federation, tracer, events, result

    def test_breaker_relay_path_stays_one_trace(self, world):
        federation, tracer, events, result = self.failover(world)
        assert result.delivered
        assert any(hop.role == "relay" for hop in result.hops)
        root = origin_root(tracer)
        assert result.outcome.trace_id == root.trace_id
        spans = tracer.finished()
        # every span the failover touched is in the origin's trace
        assert {s.trace_id for s in spans} == {root.trace_id}
        names = [s.name for s in spans]
        assert names.count("gateway.relay") == 2  # d0->d2 and d2->d1 hops
        assert "federation.forward" in names
        analyzer = TraceAnalyzer(spans)
        assert analyzer.is_connected(root.trace_id)
        # the operator trip that forced the failover is an event too
        assert events.events(kind=KIND_BREAKER_OPEN)

    def test_critical_path_covers_the_end_to_end_duration(self, world):
        _, tracer, _, result = self.failover(world)
        assert result.delivered
        root = origin_root(tracer)
        analyzer = TraceAnalyzer(tracer.finished())
        path = [span["name"] for span in analyzer.critical_path(root.trace_id)]
        assert path[0] == "federation.exchange"
        assert "federation.forward" in path
        assert analyzer.critical_path_coverage(root.trace_id) >= 0.95

    def test_forward_span_records_the_via_domain(self, world):
        _, tracer, _, _ = self.failover(world)
        [forward] = [s for s in tracer.finished() if s.name == "federation.forward"]
        assert forward.tags["via"] == "d2"
        assert forward.tags["outcome"] == "delivered"


class TestTracingLeavesSimulatedTimeAlone:
    """Regression: the gateway charged the stamped trace context to the
    WAN link, so every traced relay landed later than its untraced twin."""

    def run(self, traced, names, tripped):
        options = {} if traced else {"tracer": None, "events": None}
        federation, _, _ = make_federation(World(seed=42), names=names, **options)
        if tripped:
            federation.domain(names[0]).gateway_to(names[1]).breaker.force_open()
        result = federation.federated_exchange(ExchangeRequest(
            f"p-{names[0]}", f"p-{names[1]}", "app0", "app0", DOC
        ))
        assert result.delivered and result.cross_domain
        hops = [(hop.domain, hop.role, hop.time) for hop in result.hops]
        return hops, result.attempts, result.latency_s

    @pytest.mark.parametrize(
        "names, tripped",
        [(("upc", "gmd"), False), (("d0", "d1", "d2"), True)],
        ids=["direct", "breaker-failover"],
    )
    def test_traced_run_matches_untraced_run(self, names, tripped):
        traced = self.run(True, names, tripped)
        assert traced == self.run(False, names, tripped)
        if tripped:
            assert [role for _, role, _ in traced[0]].count("relay") == 1


class TestTraceCorrelatedEvents:
    def test_breaker_trip_emits_open_event(self, world):
        federation, _, events = make_federation(world)
        breaker = federation.domain("upc").gateway_to("gmd").breaker
        threshold = breaker._threshold
        for _ in range(threshold):
            breaker.record_failure()
        [opened] = events.events(kind=KIND_BREAKER_OPEN)
        assert opened.attrs["streak"] == threshold

    def test_dead_letter_event_carries_the_origin_trace(self, world):
        federation, tracer, events = make_federation(world)  # no intermediate
        federation.domain("upc").gateway_to("gmd").breaker.force_open()
        result = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        assert result.reason_code == "gateway-dead-letter"
        root = origin_root(tracer)
        [letter] = events.events(kind=KIND_DEAD_LETTER)
        assert letter.trace_id == root.trace_id
        assert letter.attrs["gateway"] == "upc->gmd"

    def test_redrive_emits_one_event(self, world):
        federation, _, events = make_federation(world)
        gateway = federation.domain("upc").gateway_to("gmd")
        gateway.breaker.force_open()
        federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC
        ))
        gateway.breaker.reset()
        assert gateway.redrive() == 1
        [redrive] = events.events(kind=KIND_REDRIVE)
        assert redrive.attrs == {"gateway": "upc->gmd", "letters": 1}

    def test_relay_deadline_expiry_emits_deadline_event(self, world):
        federation, tracer, events = make_federation(world)
        upc = federation.domain("upc")
        world.network.set_link(
            upc.node, federation.domain("gmd").node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        result = federation.federated_exchange(ExchangeRequest(
            "p-upc", "p-gmd", "app0", "app0", DOC, deadline=world.now + 2.0
        ))
        assert not result.delivered
        deadline_events = events.events(kind=KIND_DEADLINE)
        assert deadline_events, "gateway deadline expiry must be logged"
        assert deadline_events[0].trace_id == origin_root(tracer).trace_id

    def test_health_flip_emits_transition_event(self, world):
        federation, _, events = make_federation(world, names=("d0", "d1", "d2"))
        federation.start_health_checks()
        d0, d1 = federation.domain("d0"), federation.domain("d1")
        world.network.set_link(
            d0.node, d1.node,
            LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0),
        )
        world.run_for(5.0)
        flips = events.events(kind=KIND_HEALTH_TRANSITION)
        assert any(
            not flip.attrs["healthy"] and "d1" in flip.attrs["key"]
            for flip in flips
        )
