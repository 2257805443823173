"""Tests for repro.obs.tracing: span nesting under the simulated clock
and the disabled tracer path."""

from __future__ import annotations

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.sim.engine import Engine


class TestSimClockSpans:
    def test_span_durations_are_simulated_seconds(self):
        engine = Engine()
        tracer = Tracer()
        tracer.bind_engine(engine)
        durations = []

        def work():
            with tracer.span("work"):
                engine.schedule(2.5, lambda: None)

        engine.schedule(1.0, work)
        engine.run()
        [span] = tracer.finished()
        assert span.name == "work"
        assert span.start == 1.0
        # the span closed before the inner event fired, so zero sim time passed
        assert span.duration == 0.0

        with tracer.span("outer"):
            engine.schedule(4.0, lambda: durations.append(True))
            engine.run()
        outer = tracer.finished()[-1]
        assert outer.duration == 4.0  # engine advanced while the span was open

    def test_nesting_shares_trace_and_links_parent(self):
        tracer = Tracer()
        with tracer.span("outer", who="ana") as outer:
            assert tracer.depth == 1
            with tracer.span("inner") as inner:
                assert tracer.depth == 2
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert tracer.depth == 0
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert first.parent_id == "" and second.parent_id == ""

    def test_ids_are_deterministic(self):
        ids = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.span("a") as span:
                ids.append((span.trace_id, span.span_id))
        assert ids[0] == ids[1] == ("trace-0001", "span-0001")

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("bad")
        except RuntimeError:
            pass
        [span] = tracer.finished()
        assert span.finished
        assert "RuntimeError" in span.tags["error"]

    def test_tags_and_to_dict(self):
        tracer = Tracer()
        with tracer.span("op", a=1) as span:
            span.tag(b=2)
        data = span.to_dict()
        assert data["tags"] == {"a": 1, "b": 2}
        assert "clock" not in data
        assert data["duration"] == 0.0

    def test_reset_forgets_finished_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished() == []

    def test_reset_keeps_id_counters_by_default(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        with tracer.span("b") as span:
            pass
        # ids keep running: no collision with spans recorded pre-reset
        assert (span.trace_id, span.span_id) == ("trace-0002", "span-0002")

    def test_drain_consumes_finished_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        batch = tracer.drain()
        assert [span.name for span in batch] == ["a"]
        assert tracer.finished() == []  # consumed, not copied
        with tracer.span("b") as span:
            pass
        # ids keep running across drains (unlike reset(ids=True))
        assert span.trace_id == "trace-0002"
        assert [s.name for s in tracer.drain()] == ["b"]

    def test_drain_sweeps_retained_unsampled_traces(self):
        tracer = Tracer().configure_sampling(0.0, seed=1)
        with tracer.span("op", reason_code="timeout"):
            pass
        assert [span.name for span in tracer.drain()] == ["op"]
        assert tracer.drain() == []

    def test_reset_with_ids_restores_fresh_tracer_determinism(self):
        """reset(ids=True) makes a reused tracer emit exactly the ids a
        fresh one would — required when a reseeded run reuses it."""

        def run(tracer):
            with tracer.span("exchange"):
                with tracer.span("relay"):
                    pass
            return [(s.trace_id, s.span_id, s.parent_id) for s in tracer.finished()]

        tracer = Tracer()
        first = run(tracer)
        tracer.reset(ids=True)
        second = run(tracer)
        assert first == second == run(Tracer())


class TestNullTracer:
    def test_disabled_and_yields_shared_inert_span(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", tag=1) as span:
            assert span is NULL_SPAN
            span.tag(more=2)
        assert span.trace_id == ""
        assert span.tags == {}
        assert NULL_TRACER.finished() == []

    def test_span_context_is_reused_not_allocated(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_environment_defaults_to_null_tracer(self, world):
        from repro.environment.environment import CSCWEnvironment

        env = CSCWEnvironment.builder().with_world(world).build()
        assert env.tracer.enabled is False
        assert env.metrics.enabled is False

    def test_exception_escapes_null_span_without_corruption(self):
        """An exception through a null span must leave the shared context
        manager reusable — the null tracer keeps no per-entry state."""
        tracer = NullTracer()
        for _ in range(2):
            try:
                with tracer.span("boom"):
                    raise RuntimeError("bad")
            except RuntimeError:
                pass
        with tracer.span("after") as span:
            assert span is NULL_SPAN
        assert tracer.finished() == []

    def test_nested_null_spans_with_exception_stay_inert(self):
        tracer = NullTracer()
        try:
            with tracer.span("outer"):
                with tracer.span_from_context("inner", None) as inner:
                    inner.tag(step=1)
                    raise RuntimeError("bad")
        except RuntimeError:
            pass
        assert inner is NULL_SPAN and inner.tags == {}
        assert tracer.current_context() is None
        assert tracer.finished() == []

    def test_null_span_exception_does_not_leak_into_a_real_tracer(self):
        """Regression guard: code that raised inside NULL_TRACER spans must
        not leave residue that corrupts a later-enabled real tracer."""
        try:
            with NULL_TRACER.span("boom"):
                raise RuntimeError("bad")
        except RuntimeError:
            pass
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.depth == 0
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]
