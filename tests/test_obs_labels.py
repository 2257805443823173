"""Tests for dimensional metric families and the cardinality cap."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    CARDINALITY_DROPPED,
    CARDINALITY_LIMIT,
    NULL_METRICS,
    OVERFLOW_LABEL,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    render_labelled_name,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestFamilies:
    def test_same_label_set_returns_same_child(self, registry):
        family = registry.counter("relays", labels=("source", "target"))
        a = family.labels(source="d0", target="d1")
        b = family.labels("d0", "d1")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_children_render_into_flat_snapshot(self, registry):
        family = registry.counter("delivered", labels=("domain",))
        family.labels(domain="d1").inc(3)
        family.labels(domain="d0").inc(2)
        counters = registry.snapshot()["counters"]
        assert counters["delivered{domain=d0}"] == 2
        assert counters["delivered{domain=d1}"] == 3
        # deterministic: labelled names sort with everything else
        assert list(counters) == sorted(counters)

    def test_kinds_and_shorthands(self, registry):
        counters = registry.counter("c", labels=("k",))
        gauges = registry.gauge("g", labels=("k",))
        histograms = registry.histogram("h", buckets=(1.0, 2.0), labels=("k",))
        assert isinstance(counters, CounterFamily)
        assert isinstance(gauges, GaugeFamily)
        assert isinstance(histograms, HistogramFamily)
        counters.inc(k="x")
        gauges.set(4.5, k="x")
        histograms.observe(1.5, k="x")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c{k=x}"] == 1
        assert snapshot["gauges"]["g{k=x}"] == 4.5
        assert snapshot["histograms"]["h{k=x}"]["count"] == 1

    def test_histogram_children_share_family_buckets(self, registry):
        family = registry.histogram("lat", buckets=(0.5, 1.0), labels=("k",))
        child = family.labels(k="a")
        assert child.bounds == (0.5, 1.0)

    def test_family_reuse_is_validated(self, registry):
        registry.counter("f", labels=("a", "b"))
        with pytest.raises(ValueError):
            registry.counter("f", labels=("a",))
        with pytest.raises(ValueError):
            registry.gauge("f", labels=("a", "b"))
        # same declaration: fine
        assert registry.counter("f", labels=("a", "b")) is registry.family("f")

    def test_label_arity_and_mixing_rejected(self, registry):
        family = registry.counter("f", labels=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("x")
        with pytest.raises(ValueError):
            family.labels(a="x")
        with pytest.raises(ValueError):
            family.labels("x", b="y")

    def test_values_are_coerced_to_strings(self, registry):
        family = registry.counter("f", labels=("shard",))
        family.labels(shard=3).inc()
        assert registry.snapshot()["counters"]["f{shard=3}"] == 1

    def test_reset_zeroes_children_keeping_families(self, registry):
        family = registry.counter("f", labels=("k",))
        family.labels(k="a").inc(5)
        registry.reset()
        assert registry.snapshot()["counters"]["f{k=a}"] == 0
        assert registry.family("f").cardinality == 1


class TestCardinalityCap:
    def test_overflow_collapses_and_counts_drops(self, registry):
        family = registry.counter("f", labels=("k",), limit=2)
        family.labels(k="a").inc()
        family.labels(k="b").inc()
        overflow_1 = family.labels(k="c")
        overflow_2 = family.labels(k="d")
        assert overflow_1 is overflow_2  # both collapse into __other__
        overflow_1.inc(2)
        counters = registry.snapshot()["counters"]
        rendered = render_labelled_name("f", ("k",), (OVERFLOW_LABEL,))
        assert counters[rendered] == 2
        # one drop per distinct collapsed label set
        assert counters[CARDINALITY_DROPPED] == 2
        family.labels(k="c").inc()
        assert registry.snapshot()["counters"][CARDINALITY_DROPPED] == 2

    def test_existing_children_survive_the_cap(self, registry):
        family = registry.counter("f", labels=("k",), limit=1)
        child = family.labels(k="keep")
        family.labels(k="dropped").inc()
        assert family.labels(k="keep") is child
        assert family.cardinality == 1

    def test_default_limit_is_global_constant(self, registry):
        family = registry.counter("f", labels=("k",))
        assert family.limit == CARDINALITY_LIMIT

    def test_cardinality_report_is_sorted(self, registry):
        registry.counter("z", labels=("k",)).labels(k="a")
        registry.counter("a", labels=("k",)).labels(k="a")
        report = registry.cardinality()
        assert list(report) == ["a", "z"]
        assert report["a"] == 1


class TestNullFamilies:
    def test_null_registry_hands_out_noop_families(self):
        """A null family resolves every label set to the shared child and
        declares nothing in the registry."""
        family = NULL_METRICS.counter("f", labels=("k",))
        assert family.labels(k="a") is family.labels("b") is NULL_METRICS.counter("f")
        gauges = NULL_METRICS.gauge("g", labels=("k",))
        assert gauges.labels(k="a") is NULL_METRICS.gauge("g")
        histograms = NULL_METRICS.histogram("h", labels=("k",))
        assert histograms.labels(k="a") is NULL_METRICS.histogram("h")
        assert NULL_METRICS.family("f") is None
        assert NULL_METRICS.snapshot()["counters"] == {}
