"""Tests for the hierarchical-topic event bus."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.util.events import EventBus, EventRecorder, topic_matches


class TestTopicMatching:
    def test_exact_match(self):
        assert topic_matches("a/b", "a/b")

    def test_descendant_matches(self):
        assert topic_matches("a", "a/b/c")

    def test_sibling_does_not_match(self):
        assert not topic_matches("a/b", "a/c")

    def test_prefix_string_without_separator_does_not_match(self):
        assert not topic_matches("act/a1", "act/a10")

    def test_star_matches_everything(self):
        assert topic_matches("*", "anything/at/all")


class TestEventBus:
    def test_publish_reaches_matching_subscriber(self):
        bus = EventBus()
        rec = EventRecorder()
        bus.subscribe("chat", rec)
        assert bus.publish("chat/room1", "hello") == 1
        assert rec.payloads() == ["hello"]

    def test_publish_skips_non_matching(self):
        bus = EventBus()
        rec = EventRecorder()
        bus.subscribe("chat", rec)
        assert bus.publish("mail/inbox", "x") == 0
        assert rec.events == []

    def test_multiple_subscribers_all_notified(self):
        bus = EventBus()
        recs = [EventRecorder() for _ in range(3)]
        for rec in recs:
            bus.subscribe("t", rec)
        assert bus.publish("t", 1) == 3

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        rec = EventRecorder()
        token = bus.subscribe("t", rec)
        assert bus.unsubscribe(token)
        bus.publish("t", 1)
        assert rec.events == []

    def test_unsubscribe_unknown_token_returns_false(self):
        assert not EventBus().unsubscribe(99)

    def test_empty_topic_rejected(self):
        with pytest.raises(ValueError):
            EventBus().publish("", 1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe("", lambda e: None)

    def test_event_carries_source_and_time(self):
        bus = EventBus()
        rec = EventRecorder()
        bus.subscribe("t", rec)
        bus.publish("t", None, source="app1", time=3.5)
        event = rec.events[0]
        assert event.source == "app1"
        assert event.time == 3.5

    def test_counts(self):
        bus = EventBus()
        bus.subscribe("t", EventRecorder())
        bus.publish("t", 1)
        bus.publish("other", 1)
        assert bus.published_count == 2
        assert bus.delivered_count == 1

    def test_subscriptions_for(self):
        bus = EventBus()
        bus.subscribe("a", EventRecorder(), subscriber="app")
        bus.subscribe("b", EventRecorder(), subscriber="app")
        assert bus.subscriptions_for("app") == ["a", "b"]

    def test_isolation_between_activity_topics(self):
        """Activity transparency: unrelated activities do not disturb each other."""
        bus = EventBus()
        act1 = EventRecorder()
        act2 = EventRecorder()
        bus.subscribe("activity/a1", act1)
        bus.subscribe("activity/a2", act2)
        bus.publish("activity/a1/edit", "doc change")
        assert act1.topics() == ["activity/a1/edit"]
        assert act2.events == []


class TestUnheardPublish:
    """A publish nobody listens to is cheap but counted exactly as before."""

    def test_unmatched_publish_keeps_totals_and_series(self):
        registry = MetricsRegistry()
        bus = EventBus()
        bus.attach_metrics(registry)
        bus.subscribe("chat", EventRecorder())
        assert bus.publish("mail/inbox", {"x": 1}) == 0
        assert bus.published_count == 1
        assert bus.delivered_count == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"events.delivered": 0, "events.published": 1}
        fanout = snapshot["histograms"]["events.fanout"]
        assert (fanout["count"], fanout["sum"], fanout["min"], fanout["max"]) == (1, 0.0, 0, 0)
        assert fanout["buckets"]["le_1"] == 1

    def test_later_subscriber_gets_events_stamped_from_the_bound_clock(self):
        now = [1.0]
        bus = EventBus()
        bus.bind_clock(lambda: now[0])
        assert bus.publish("t", "unheard") == 0
        rec = EventRecorder()
        bus.subscribe("t", rec)
        now[0] = 4.5
        assert bus.publish("t", "heard") == 1
        assert [(e.payload, e.time) for e in rec.events] == [("heard", 4.5)]
        bus.publish("t", "explicit", time=9.0)
        assert rec.events[-1].time == 9.0

    def test_every_handler_of_one_publish_sees_the_same_event(self):
        bus = EventBus()
        first, second = EventRecorder(), EventRecorder()
        bus.subscribe("t", first)
        bus.subscribe("other", EventRecorder())
        bus.subscribe("t/sub", second)
        bus.publish("t/sub", "p", source="app")
        assert first.events[0] is second.events[0]

    def test_handler_unsubscribing_itself_mid_publish(self):
        bus = EventBus()
        seen: list[str] = []
        tokens: dict[str, int] = {}

        def once(event):
            seen.append("once")
            assert bus.unsubscribe(tokens["once"])

        tokens["once"] = bus.subscribe("t", once)
        bus.subscribe("t", lambda event: seen.append("always"))
        assert bus.publish("t", 1) == 2
        assert bus.publish("t", 2) == 1
        assert seen == ["once", "always", "always"]
        assert bus.delivered_count == 3

    def test_handler_subscribing_mid_publish_starts_with_the_next_event(self):
        bus = EventBus()
        late = EventRecorder()
        bus.subscribe("t", lambda event: bus.subscribe("t", late))
        bus.publish("t", 1)
        assert late.events == []
        bus.publish("t", 2)
        assert late.payloads() == [2]
