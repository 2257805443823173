"""Tests for repro.obs.metrics: registry semantics, histogram bucketing,
and the no-op (disabled) overhead path."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments_and_returns_value(self):
        counter = Counter("c")
        assert counter.inc() == 1
        assert counter.inc(4) == 5
        assert counter.value == 5

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_bucketing_is_le_semantics_with_overflow(self):
        histogram = Histogram("h", buckets=(1.0, 4.0, 16.0))
        for value in (0.0, 1.0, 2.0, 4.0, 5.0, 100.0):
            histogram.observe(value)
        # <=1: {0,1}, <=4: {2,4}, <=16: {5}, +inf: {100}
        assert histogram.bucket_counts == [2, 2, 1, 1]
        assert histogram.count == 6
        assert histogram.minimum == 0.0
        assert histogram.maximum == 100.0

    def test_mean_and_snapshot_shape(self):
        histogram = Histogram("h", buckets=(10.0,))
        histogram.observe(4.0)
        histogram.observe(8.0)
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == 6.0
        assert snap["buckets"] == {"le_10": 2, "le_inf": 0}

    def test_empty_snapshot_is_json_safe(self):
        snap = Histogram("h").snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        json.dumps(snap)  # no inf/nan leaks

    def test_bounds_are_sorted_and_unique(self):
        histogram = Histogram("h", buckets=(8.0, 2.0, 4.0))
        assert histogram.bounds == (2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_reset_keeps_bounds(self):
        histogram = Histogram("h", buckets=(2.0,))
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.bounds == (2.0,)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_buckets_fixed_at_creation(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(5.0,))
        # later callers cannot change the bounds
        assert registry.histogram("h", buckets=(99.0,)).bounds == (5.0,)
        assert registry.histogram("default").bounds == tuple(DEFAULT_BUCKETS)

    def test_shorthands_record(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.set_gauge("g", 7.0)
        registry.observe("h", 2.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_snapshot_is_json_dumpable_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)

    def test_reset_zeroes_but_keeps_names(self):
        registry = MetricsRegistry()
        registry.inc("c", 9)
        registry.set_gauge("g", 1.0)
        registry.observe("h", 1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["gauges"] == {"g": 0.0}
        assert snap["histograms"]["h"]["count"] == 0

    def test_render_text_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.inc("requests", 2)
        registry.set_gauge("depth", 3.0)
        registry.observe("sizes", 10.0)
        text = registry.render_text()
        assert "counter requests 2" in text
        assert "gauge depth 3" in text
        assert "histogram sizes count=1" in text


class TestNullRegistry:
    def test_disabled_flag_and_noop_operations(self):
        """What the null registry still does, binding and ``read``,
        registers nothing: every write checks ``enabled`` instead."""
        assert NULL_METRICS.enabled is False
        counter = NULL_METRICS.counter("a")
        assert counter is NULL_METRICS.counter("b")
        assert type(counter) is Counter
        assert type(NULL_METRICS.gauge("g")) is Gauge
        assert type(NULL_METRICS.histogram("h", buckets=(1.0,))) is Histogram
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert NULL_METRICS.cardinality() == {}

    def test_components_default_to_noop_registry(self):
        """The opt-in contract: a fresh engine/bus/trader records nothing."""
        from repro.odp.trader import Trader
        from repro.sim.engine import Engine
        from repro.util.events import EventBus

        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        engine.run()
        bus = EventBus()
        bus.publish("t", 1)
        trader = Trader("t")
        assert engine._obs is NULL_METRICS
        assert bus._obs is NULL_METRICS
        assert trader._obs is NULL_METRICS
        assert NULL_METRICS.snapshot()["counters"] == {}


class TestReadSeries:
    """Counters a registry reads from the tallies of the layers it observes."""

    def test_series_reports_growth_since_attach(self):
        from repro.util.events import EventBus

        bus = EventBus()
        bus.publish("t", 1)
        registry = MetricsRegistry()
        bus.attach_metrics(registry)
        assert registry.snapshot()["counters"]["events.published"] == 0
        bus.publish("t", 2)
        assert registry.counter("events.published").value == 1

    def test_attached_objects_sum_and_reattach_registers_once(self):
        from repro.util.events import EventBus

        registry = MetricsRegistry()
        first, second = EventBus(), EventBus()
        for bus in (first, second, first):
            bus.attach_metrics(registry)
        first.publish("t", 1)
        second.publish("t", 1)
        second.publish("t", 1)
        assert registry.counter("events.published").value == 3

    def test_detach_freezes_and_reset_zeroes(self):
        from repro.util.events import EventBus

        bus, old, fresh = EventBus(), MetricsRegistry(), MetricsRegistry()
        bus.attach_metrics(old)
        bus.publish("t", 1)
        bus.attach_metrics(fresh)
        bus.publish("t", 1)
        assert old.counter("events.published").value == 1
        assert fresh.counter("events.published").value == 1
        fresh.reset()
        assert fresh.counter("events.published").value == 0
        bus.publish("t", 1)
        assert fresh.counter("events.published").value == 1
        bus.attach_metrics(None)
        bus.publish("t", 1)
        assert fresh.counter("events.published").value == 1

    def test_null_registry_registers_nothing(self):
        owner = object()
        assert NULL_METRICS.read(owner, {"x": lambda: 1}) is NULL_METRICS
        assert NULL_METRICS.snapshot()["counters"] == {}

    def test_labelled_series_joins_its_family(self):
        tally = {"n": 0}
        registry = MetricsRegistry()
        registry.read(self, {"ops": lambda: tally["n"]}, labels={"shard": "s0"})
        tally["n"] += 2
        family = registry.family("ops")
        assert family.labels(shard="s0").value == 2
        assert registry.snapshot()["counters"] == {"ops{shard=s0}": 2}

    def test_published_counts_a_publish_whose_handler_raised(self):
        """A raising handler is isolated: the publish returns, the later
        handler still runs, and the error is a counted series that exists
        only once an error happened."""
        from repro.util.events import EventBus, EventRecorder

        def boom(event):
            raise RuntimeError("handler failed")

        bus, registry, after = EventBus(), MetricsRegistry(), EventRecorder()
        bus.attach_metrics(registry)
        bus.subscribe("t", boom)
        bus.subscribe("t", after)
        assert "events.handler_errors" not in registry.snapshot()["counters"]
        assert bus.publish("t", 1) == 2
        assert after.payloads() == [1]
        counters = registry.snapshot()["counters"]
        assert counters["events.handler_errors"] == 1
        assert counters["events.published"] == bus.published_count == 1
        assert counters["events.delivered"] == bus.delivered_count == 2
