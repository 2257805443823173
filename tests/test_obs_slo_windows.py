"""Regression: windowed SLO rings match the cumulative-deque semantics.

The original ``SLOEngine`` kept every tick's cumulative reading in a
list and popped expired entries from the front (``samples.pop(0)``).
The rewrite stores per-tick deltas in a fixed ``Window`` ring
instead.  This module pins the behavioural
contract: a reference sampler holding cumulative readings in a bounded
:class:`collections.deque` — the shape the old implementation reduces
to — must agree with ``evaluate()`` on every tick of a seeded run,
including the warm-up before the window fills.
"""

from __future__ import annotations

import math
import random
from collections import deque

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine

LATENCY_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0)
PERIOD_S = 1.0
WINDOW_S = 8.0


class ReferenceSLO:
    """Cumulative-sample reference: a deque of readings per objective.

    Keeps the last ``slots + 1`` cumulative readings; the oldest entry
    is the window baseline, exactly what the old list-of-samples code
    computed after pruning.  Memory here is O(window) by construction,
    which is what makes it a fair oracle for the ring rewrite.
    """

    def __init__(self, metrics: MetricsRegistry, window_s: float, period_s: float):
        self._metrics = metrics
        slots = max(1, int(math.ceil(window_s / period_s - 1e-9)))
        self.ratio_samples: deque = deque(maxlen=slots + 1)
        self.latency_samples: deque = deque(maxlen=slots + 1)

    def sample(self) -> None:
        self.ratio_samples.append(
            (
                self._metrics.counter("env.delivered").value,
                self._metrics.counter("env.total").value,
            )
        )
        histogram = self._metrics.histogram("env.latency")
        self.latency_samples.append(list(histogram.bucket_counts))

    def ratio_status(self, target: float) -> dict:
        good1 = self._metrics.counter("env.delivered").value
        total1 = self._metrics.counter("env.total").value
        good0, total0 = self.ratio_samples[0] if self.ratio_samples else (0, 0)
        good, total = good1 - good0, total1 - total0
        ratio = good / total if total else 1.0
        return {"value": round(ratio, 6), "met": ratio >= target, "observations": total}

    def latency_status(self, quantile: float, threshold_s: float) -> dict:
        histogram = self._metrics.histogram("env.latency")
        counts1 = list(histogram.bucket_counts)
        counts0 = (
            self.latency_samples[0] if self.latency_samples else [0] * len(counts1)
        )
        deltas = [c1 - c0 for c1, c0 in zip(counts1, counts0)]
        total = sum(deltas)
        if total <= 0:
            value = 0.0
        else:
            rank, cumulative, value = quantile * total, 0, None
            for bound, delta in zip(histogram.bounds, deltas):
                cumulative += delta
                if cumulative >= rank:
                    value = bound
                    break
            if value is None:
                value = histogram.maximum
        return {
            "value": round(value, 6),
            "met": value <= threshold_s,
            "observations": total,
        }


@pytest.fixture
def metrics() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.histogram("env.latency", LATENCY_BUCKETS)
    return registry


def drive(world, metrics, slo, reference, ticks: int, seed: int = 1234):
    """Seeded workload; yields (engine status, reference status) per tick."""
    rng = random.Random(seed)
    for _ in range(ticks):
        for _ in range(rng.randrange(0, 6)):
            metrics.inc("env.total")
            if rng.random() < 0.8:
                metrics.inc("env.delivered")
            metrics.observe("env.latency", rng.choice((0.05, 0.3, 0.8, 1.5, 4.0)))
        world.run_for(PERIOD_S)
        reference.sample()
        yield slo.evaluate()


class TestDequeEquivalence:
    def test_ratio_matches_reference_every_tick(self, world, metrics):
        slo = SLOEngine(world.engine, metrics, sample_period_s=PERIOD_S).add_ratio(
            "delivered",
            "env.delivered",
            "env.total",
            target=0.9,
            window_s=WINDOW_S,
        )
        slo.start()
        reference = ReferenceSLO(metrics, WINDOW_S, PERIOD_S)
        for tick, status in enumerate(drive(world, metrics, slo, reference, 40)):
            expected = reference.ratio_status(target=0.9)
            got = status["delivered"]
            assert got["value"] == expected["value"], f"tick {tick}"
            assert got["met"] == expected["met"], f"tick {tick}"
            assert got["observations"] == expected["observations"], f"tick {tick}"

    def test_latency_matches_reference_every_tick(self, world, metrics):
        slo = SLOEngine(world.engine, metrics, sample_period_s=PERIOD_S).add_latency(
            "p90",
            "env.latency",
            threshold_s=1.0,
            quantile=0.9,
            window_s=WINDOW_S,
        )
        slo.start()
        reference = ReferenceSLO(metrics, WINDOW_S, PERIOD_S)
        for tick, status in enumerate(drive(world, metrics, slo, reference, 40)):
            expected = reference.latency_status(quantile=0.9, threshold_s=1.0)
            got = status["p90"]
            assert got["value"] == expected["value"], f"tick {tick}"
            assert got["met"] == expected["met"], f"tick {tick}"
            assert got["observations"] == expected["observations"], f"tick {tick}"

    def test_mid_tick_reads_see_fresh_traffic(self, world, metrics):
        # evaluate() between ticks must behave like a live cumulative
        # difference: traffic since the last sample is already visible.
        slo = SLOEngine(world.engine, metrics, sample_period_s=PERIOD_S).add_ratio(
            "delivered", "env.delivered", "env.total", window_s=WINDOW_S
        )
        slo.start()
        world.run_for(PERIOD_S)
        metrics.inc("env.total")  # not yet sampled by any tick
        assert slo.evaluate()["delivered"]["observations"] == 1

    def test_window_memory_stays_bounded(self, world, metrics):
        slo = SLOEngine(world.engine, metrics, sample_period_s=PERIOD_S).add_ratio(
            "delivered", "env.delivered", "env.total", window_s=WINDOW_S
        )
        slo.start()
        slots = max(1, int(math.ceil(WINDOW_S / PERIOD_S - 1e-9)))
        for _ in range(200):
            metrics.inc("env.delivered")
            metrics.inc("env.total")
            world.run_for(PERIOD_S)
        assert slo.window_cells() == {"delivered": slots}
