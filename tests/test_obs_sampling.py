"""Tests for deterministic trace sampling and tail-biased retention."""

from __future__ import annotations

import pytest

from repro.obs.analyze import TraceAnalyzer
from repro.obs.context import TraceContext
from repro.obs.export import chrome_trace_json, to_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.org.model import Organisation, Person
from repro.sim.world import World
from repro.util.errors import ConfigurationError


def make_sampler(p=0.5, seed=7) -> Tracer:
    return Tracer().configure_sampling(p, seed=seed)


class TestHeadSampling:
    def test_same_seed_same_decisions(self):
        first, second = make_sampler(), make_sampler()
        decisions = []
        for tracer in (first, second):
            run = []
            for _ in range(32):
                with tracer.span("op") as span:
                    run.append(span.sampled)
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert 0 < sum(decisions[0]) < 32

    def test_different_seed_different_decisions(self):
        # decision hash differs by seed for at least one of 64 trace indices
        first = [make_sampler(seed=1)._decide(i) for i in range(64)]
        second = [make_sampler(seed=2)._decide(i) for i in range(64)]
        assert first != second

    def test_p_bounds(self):
        with pytest.raises(ValueError):
            Tracer().configure_sampling(1.5)
        everything = Tracer().configure_sampling(1.0)
        assert everything.sampling is None  # p=1.0 is the unsampled fast path
        nothing = Tracer().configure_sampling(0.0)
        with nothing.span("op") as span:
            assert span.sampled is False
        assert nothing.finished() == []

    def test_children_inherit_the_root_verdict(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.sampled is root.sampled is False
        assert tracer.finished() == []
        assert tracer.sampled_out == 1  # one decision, made at the root

    def test_stats_count_decisions(self):
        tracer = make_sampler(p=0.5, seed=7)
        for _ in range(16):
            with tracer.span("op"):
                pass
        assert tracer.sampled_in + tracer.sampled_out == 16
        assert tracer.sampled_in == len(tracer.finished())

    def test_reset_clears_sampling_state(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("op", reason_code="timeout"):
            pass
        assert len(tracer.finished()) == 1
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.sampled_out == 0
        assert tracer.tail_retained == 0


class TestContextPropagation:
    def test_context_carries_the_verdict(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("root"):
            context = tracer.current_context()
        assert context.sampled is False
        document = context.to_document()
        assert document["sampled"] is False
        assert TraceContext.from_document(document).sampled is False

    def test_sampled_wire_format_is_unchanged(self):
        tracer = Tracer()
        with tracer.span("root"):
            document = tracer.current_context().to_document()
        assert set(document) == {"trace_id", "span_id"}

    def test_remote_hop_inherits_drop(self):
        origin = make_sampler(p=0.0)
        with origin.span("root"):
            context = origin.current_context()
        remote = Tracer()  # receiving side samples nothing itself
        with remote.span_from_context("hop", context) as span:
            assert span.sampled is False
        assert remote.finished() == []

    def test_detached_span_inherits_from_context(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("root"):
            context = tracer.current_context()
        span = tracer.start_span("async", context=context)
        assert span.sampled is False
        tracer.finish(span)
        assert tracer.finished() == []


class TestTailRetention:
    def test_error_spans_promote_their_whole_trace(self):
        tracer = make_sampler(p=0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("step"):
                    pass
                with tracer.span("boom"):
                    raise RuntimeError("kaput")
        finished = tracer.finished()
        assert [span.name for span in finished] == ["step", "boom", "root"]
        assert tracer.tail_retained == 1

    @pytest.mark.parametrize(
        "tags",
        [
            {"reason_code": "deadline-exceeded"},
            {"outcome": "expired"},
            {"reason": "parked"},
            {"delivered": False},
        ],
    )
    def test_failure_tags_promote(self, tags):
        tracer = make_sampler(p=0.0)
        with tracer.span("root", **tags):
            pass
        assert len(tracer.finished()) == 1
        assert tracer.sampled_out == 1 and tracer.tail_retained == 1

    def test_forward_span_name_promotes(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("root"):
            with tracer.span("federation.forward"):
                pass
        assert {span.name for span in tracer.finished()} == {
            "root", "federation.forward"
        }

    def test_healthy_traces_are_dropped(self):
        tracer = make_sampler(p=0.0)
        for _ in range(4):
            with tracer.span("root", reason_code="delivered"):
                with tracer.span("step"):
                    pass
        assert tracer.finished() == []
        assert tracer.tail_retained == 0

    def test_late_span_of_promoted_trace_is_kept(self):
        tracer = make_sampler(p=0.0)
        with tracer.span("root", delivered=False):
            context = tracer.current_context()
        tracer.finished()  # drains: trace promoted into the retained set
        late = tracer.start_span("redrive", context=context)
        tracer.finish(late)
        assert [span.name for span in tracer.finished()] == ["root", "redrive"]


class TestBuilderKnob:
    def test_requires_tracer(self, world):
        builder = (
            CSCWEnvironment.builder().with_world(world).with_trace_sampling(0.5)
        )
        with pytest.raises(ConfigurationError):
            builder.build()
        with pytest.raises(ConfigurationError):
            CSCWEnvironment.builder().with_trace_sampling(1.5)

    def test_configures_the_tracer(self, world):
        tracer = Tracer()
        (
            CSCWEnvironment.builder()
            .with_world(world)
            .with_tracer(tracer)
            .with_trace_sampling(0.25, seed=3)
            .build()
        )
        assert tracer.sampling == (0.25, 3)


def run_sampled_population(seed: int = 9, p: float = 0.5):
    """A small exchanging population under a sampling tracer."""
    from repro.communication.model import Communicator
    from repro.environment.registry import (
        AppDescriptor,
        Q_DIFFERENT_TIME_DIFFERENT_PLACE,
    )
    from repro.information.interchange import FormatConverter, make_common

    world = World(seed=seed)
    tracer = Tracer()
    env = (
        CSCWEnvironment.builder()
        .with_world(world)
        .with_metrics(MetricsRegistry())
        .with_tracer(tracer)
        .with_trace_sampling(p, seed=seed)
        .build()
    )
    org = Organisation("upc", "UPC")
    for index in range(4):
        org.add_person(Person(f"p{index}", f"P{index}", "upc"))
    env.knowledge_base.add_organisation(org)
    world.add_site("bcn", [f"w{index}" for index in range(4)])
    for index in range(4):
        env.register_person(Communicator(f"p{index}", f"w{index}"))
    converter = FormatConverter(
        "fmt",
        lambda document: make_common("note", str(document.get("seq", "")), ""),
        lambda common: {"seq": common["title"]},
    )
    env.register_application(
        AppDescriptor(
            name="app0",
            quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
            converter=converter,
        ),
        lambda person, document, info: None,
    )
    for index in range(24):
        env.exchange(ExchangeRequest(
            f"p{index % 4}", f"p{(index + 1) % 4}", "app0", "app0", {"seq": index}
        ))
    return tracer


class TestEndToEndDeterminism:
    def test_same_seed_reruns_keep_identical_spans(self):
        first = run_sampled_population()
        second = run_sampled_population()
        assert to_jsonl(first.finished()) == to_jsonl(second.finished())
        assert first.sampled_in == second.sampled_in > 0
        assert first.sampled_out == second.sampled_out > 0

    def test_exporters_are_deterministic_under_sampling(self):
        first = run_sampled_population()
        second = run_sampled_population()
        assert chrome_trace_json(first.finished()) == chrome_trace_json(
            second.finished()
        )

    def test_every_retained_trace_is_one_connected_tree(self):
        tracer = run_sampled_population()
        analyzer = TraceAnalyzer(tracer.finished())
        assert analyzer.trace_ids()
        for trace_id in analyzer.trace_ids():
            assert analyzer.is_connected(trace_id)
            assert len(analyzer.roots(trace_id)) == 1
