"""Tests for repro.obs.windows: one ring-of-slots ``Window``.

``Window`` replaced three ring classes; the tests keep their grouping by
what the window is fed: one-element counts, bucket-count vectors (the
SLO engine's latency objectives) and probe moment sums (the health
trend, read through ``HealthMonitor.trend``).
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine, _bucket_quantile
from repro.obs.windows import Window
from repro.resilience.health import HealthMonitor
from repro.util.errors import ConfigurationError


class TestWindowedCounter:
    """A window fed one-element vectors is a windowed count."""

    def test_push_feed_keeps_last_n_slots(self):
        ring = Window(window_s=3.0, slots=3)
        for delta in (1, 2, 3):
            ring.push((delta,))
        assert ring.sums(1) == [6]
        ring.push((10,))  # the 1 ages out
        assert ring.sums(1) == [15]
        assert ring.cells == 3

    def test_timed_feed_buckets_and_evicts(self):
        ring = Window(window_s=2.0, slots=2)
        ring.add(0.1, (4,))
        ring.add(0.9, (1,))  # same slot
        ring.add(1.5, (6,))
        assert ring.sums(1) == [11]
        ring.add(2.5, (2,))  # slot [0,1) is now stale
        assert ring.sums(1) == [8]

    def test_late_timestamp_folds_into_newest_cell(self):
        ring = Window(window_s=4.0, slots=4)
        ring.add(3.0, (1,))
        ring.add(1.0, (1,))  # arrives late: folds forward, never resurrects
        assert ring.sums(1) == [2]
        assert ring.cells == 1

    def test_memory_is_bounded_by_slots(self):
        ring = Window(window_s=8.0, slots=8)
        for tick in range(10_000):
            ring.add(float(tick), (1,))
        assert ring.cells <= 8
        assert ring.sums(1) == [8]

    def test_advance_to_evicts_for_readers(self):
        ring = Window(window_s=2.0, slots=2)
        ring.add(0.5, (3,))
        ring.advance_to(1.5)
        assert ring.sums(1) == [3]
        ring.advance_to(2.0)  # slot [0,1) ages out with no write
        assert (ring.sums(1), ring.cells) == ([0], 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Window(window_s=0.0, slots=4)
        with pytest.raises(ValueError):
            Window(window_s=1.0, slots=0)


class TestWindowedHistogram:
    """A window fed bucket-count vectors is a windowed histogram; the
    SLO engine reads its quantile with ``_bucket_quantile``."""

    def test_observe_and_merged_moments(self):
        ring = Window(window_s=4.0, slots=4)
        # cells hold (bucket <= 1, bucket <= 2, overflow, count, total)
        for now, vector in (
            (0.5, (1, 0, 0, 1, 0.5)),
            (1.5, (0, 1, 0, 1, 1.5)),
            (2.5, (0, 0, 1, 1, 5.0)),
        ):
            ring.add(now, vector)
        assert ring.sums(5) == [1, 1, 1, 3, pytest.approx(7.0)]

    def test_quantile_is_conservative_bucket_bound(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0))
        ring = Window(window_s=4.0, slots=4)
        ring.push((2, 2, 0))
        counts = ring.sums(3)
        assert _bucket_quantile(histogram, counts, 4, 0.5) == 1.0
        assert _bucket_quantile(histogram, counts, 4, 1.0) == 2.0
        histogram.observe(99.0)  # the overflow reports the running maximum
        ring.push((0, 0, 1))
        assert _bucket_quantile(histogram, ring.sums(3), 5, 1.0) == 99.0

    def test_quantile_empty_and_validation(self, world):
        histogram = Histogram("latency", buckets=(1.0,))
        assert _bucket_quantile(histogram, Window(1.0, 1).sums(2), 0, 0.5) == 0.0
        slo = SLOEngine(world.engine, MetricsRegistry())
        with pytest.raises(ConfigurationError):
            slo.add_latency("l", "latency", threshold_s=1.0, quantile=0.0)

    def test_aging_out_drops_old_observations(self):
        ring = Window(window_s=2.0, slots=2)
        ring.add(0.0, (0, 1))
        ring.add(2.5, (1, 0))  # slot [0,1) ages out
        assert ring.sums(2) == [1, 0]

    def test_push_counts_pads_short_vectors(self):
        ring = Window(window_s=2.0, slots=2)
        ring.push((3,))
        assert ring.sums(3) == [3, 0, 0]


class TestWindowedTrend:
    """A window fed probe moment sums is the health trend."""

    def test_reads_ratio_and_slope(self, world):
        monitor = HealthMonitor(world.engine)
        delays = iter((0.1, 0.2, 0.3, 0.4))
        verdicts = iter((True, True, True, False))

        def probe(report):
            healthy, delay = next(verdicts), next(delays)
            world.engine.schedule(delay, lambda: report(healthy))

        monitor.watch("link", probe)
        world.run_for(4.5)  # probes at t=1..4 reply after 0.1..0.4 s
        trend = monitor.trend("link")
        assert trend.success_ratio == pytest.approx(0.75)
        # latency 0.1*k against report time 1.1*k: slope 1/11
        assert trend.latency_slope == pytest.approx(1.0 / 11.0)
        assert trend.samples == 4

    def test_empty_window_reads_healthy(self, world):
        monitor = HealthMonitor(world.engine)
        monitor.watch("link", lambda report: None)  # never replies
        world.run_for(100.0)
        trend = monitor.trend("link")
        assert (trend.success_ratio, trend.latency_slope, trend.samples) == (
            1.0, 0.0, 0,
        )

    def test_read_evicts_stale_cells(self, world):
        monitor = HealthMonitor(world.engine)
        verdicts = iter((False, False))
        monitor.watch("link", lambda report: report(next(verdicts, True)))
        world.run_for(15.0)
        trend = monitor.trend("link")
        assert trend.success_ratio == 1.0  # the failures at t=1, 2 aged out
        assert trend.samples == 10  # t=6..15 of the 10 s window
