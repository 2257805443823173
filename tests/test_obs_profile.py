"""Tests for repro.obs.profile: per-layer exclusive-time attribution."""

from __future__ import annotations

import pytest

from repro.obs.profile import Profile, layer_of, profile_spans
from repro.obs.tracing import Tracer


def make_tracer(ticks) -> Tracer:
    iterator = iter(ticks)
    return Tracer(clock=lambda: next(iterator))


class TestLayerAttribution:
    def test_exclusive_time_subtracts_children(self):
        tracer = make_tracer([0.0, 2.0, 5.0, 10.0])
        with tracer.span("env.exchange"):
            with tracer.span("mta.transfer"):
                pass
        profile = Profile.from_spans(tracer.finished())
        rows = {row["layer"]: row for row in profile.layers()}
        assert rows["env"]["total_s"] == 10.0
        assert rows["env"]["self_s"] == 7.0  # 10 minus the child's [2, 5]
        assert rows["mta"]["self_s"] == rows["mta"]["total_s"] == 3.0

    def test_overlapping_children_are_not_double_subtracted(self):
        # two detached children overlap on [1, 3] and [2, 4]: union is 3 s
        from repro.obs.context import TraceContext

        tracer = Tracer()
        clock = {"now": 0.0}
        tracer.bind_clock(lambda: clock["now"])
        root = tracer.start_span("env.batch")
        context = TraceContext(root.trace_id, root.span_id)
        first = tracer.start_span("gateway.relay", context=context)
        first.start = 1.0
        second = tracer.start_span("gateway.relay", context=context)
        second.start = 2.0
        clock["now"] = 3.0
        tracer.finish(first)
        clock["now"] = 4.0
        tracer.finish(second)
        clock["now"] = 5.0
        tracer.finish(root)
        profile = Profile.from_spans(tracer.finished())
        rows = {row["layer"]: row for row in profile.layers()}
        assert rows["env"]["total_s"] == 5.0
        assert rows["env"]["self_s"] == pytest.approx(2.0)  # 5 - union(1..4)

    def test_layers_sorted_by_self_time(self):
        tracer = make_tracer([0.0, 1.0, 9.0, 10.0])
        with tracer.span("env.exchange"):
            with tracer.span("gateway.relay"):
                pass
        profile = Profile.from_spans(tracer.finished())
        assert [row["layer"] for row in profile.layers()] == ["gateway", "env"]

    def test_layer_of(self):
        assert layer_of("env.exchange") == "env"
        assert layer_of("bare") == "bare"

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        dangling = tracer.start_span("env.exchange")
        profile = Profile.from_spans([dangling])
        assert profile.spans == 0
        assert profile.skipped_open == 1


class TestHotPaths:
    def test_paths_aggregate_by_name_chain(self):
        tracer = make_tracer(
            [0.0, 1.0, 2.0, 10.0, 10.0, 11.0, 12.0, 20.0]
        )
        for _ in range(2):
            with tracer.span("env.exchange_many"):
                with tracer.span("env.exchange"):
                    pass
        profile = profile_spans(tracer.finished())
        hot = profile.hot_paths(2)
        assert hot[0]["path"] == "env.exchange_many"
        assert hot[0]["count"] == 2
        assert hot[0]["self_s"] == pytest.approx(18.0)
        assert hot[1]["path"] == "env.exchange_many > env.exchange"
        assert hot[1]["self_s"] == pytest.approx(2.0)

class TestRendering:
    def test_render_text_table(self):
        tracer = make_tracer([0.0, 1.0, 3.0, 8.0])
        with tracer.span("env.exchange"):
            with tracer.span("gateway.relay"):
                pass
        text = Profile.from_spans(tracer.finished()).render_text()
        assert "layer profile" in text
        assert "env" in text and "gateway" in text
        assert "hot paths" in text

    def test_chrome_trace_export_round_trip(self):
        tracer = make_tracer([0.0, 1.0, 3.0, 8.0])
        with tracer.span("env.exchange"):
            with tracer.span("gateway.relay"):
                pass
        document = Profile.from_spans(tracer.finished()).to_chrome_trace()
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["env.exchange", "gateway.relay"]

    def test_dicts_carrying_an_old_clock_key_still_profile(self):
        # JSONL written when spans still exported a "clock" field
        record = {
            "name": "env.exchange", "trace_id": "t", "span_id": "s",
            "parent_id": "", "start": 0.0, "end": 2.0, "duration": 2.0,
            "clock": "wall", "tags": {},
        }
        profile = Profile.from_spans([record])
        assert profile.layers()[0]["total_s"] == 2.0
        document = profile.to_chrome_trace()
        [event] = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert event["cat"] == "sim"

    def test_incremental_add_matches_batch(self):
        tracer = make_tracer([0.0, 1.0, 3.0, 8.0])
        with tracer.span("env.exchange"):
            with tracer.span("gateway.relay"):
                pass
        spans = tracer.finished()
        batch = Profile.from_spans(spans)
        incremental = Profile().add(spans[:1]).add(spans[1:])
        # same per-layer totals as long as parents arrive with children
        assert batch.layers() != [] and incremental.spans == batch.spans
