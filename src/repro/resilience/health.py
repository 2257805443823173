"""Health monitoring: periodic probes that drive circuit breakers.

A :class:`HealthMonitor` runs one :class:`~repro.sim.engine.PeriodicTask`
per watched key.  Each firing invokes the key's *probe* — any async
check, typically an RPC ping to a peer gateway node — and the probe
reports back through a single ``report(healthy)`` callback.  The report
updates the key's health flag and, when a :class:`CircuitBreaker` is
attached, feeds it: a successful probe recloses the breaker (the link
demonstrably works), a failed probe counts towards tripping it.

Every key is probed each :data:`PROBE_PERIOD_S`.  Health is *eventual*
knowledge: between probes the monitor answers with the last
observation, and a key never probed reports healthy.  Probe outcomes
are exported as ``resilience.health.*`` counters.  Each watch owns one
:class:`~repro.obs.windows.Window` over the last :data:`TREND_WINDOW_S`,
built when the watch starts, so every report lands in it; it backs
:meth:`HealthMonitor.trend` — the windowed success ratio plus
probe-latency slope the adaptive control plane reads to act on
*degrading* links before their breaker trips.  Each cell holds the
moment sums of its reports, so trend memory is O(slots) per key,
independent of how long the soak runs or how fast probes fire.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.events import KIND_HEALTH_TRANSITION, NULL_EVENTS, EventLog
from repro.obs.metrics import NULL_METRICS, GaugeFamily, MetricsRegistry
from repro.obs.windows import Window
from repro.resilience.breaker import CircuitBreaker
from repro.sim.engine import Engine, PeriodicTask
from repro.util.errors import ConfigurationError

#: a probe receives ``report`` and must eventually call it with True/False
Probe = Callable[[Callable[[bool], None]], None]

#: sim seconds between two probes of one key
PROBE_PERIOD_S = 1.0
#: sim seconds of probe history :meth:`HealthMonitor.trend` reads
TREND_WINDOW_S = 10.0
#: ring slots per trend window — the whole per-key trend footprint
TREND_SLOTS = 32


@dataclass(frozen=True)
class HealthTrend:
    """A bounded window over one key's probe history.

    ``success_ratio`` is the fraction of in-window probes that reported
    healthy (1.0 for an empty window — absence of evidence is not
    degradation).  ``latency_slope`` is the least-squares slope of probe
    round-trip latency over sim-time (s/s): positive means the link is
    getting slower.  ``samples`` is the number of observations the
    window held.
    """

    success_ratio: float
    latency_slope: float
    samples: int


@dataclass
class _Watch:
    probe: Probe
    breaker: CircuitBreaker | None
    task: PeriodicTask
    #: per-cell moment sums (n, good, Σt, Σlat, Σt², Σt·lat) of reports
    trend: Window
    healthy: bool = True
    probes: int = 0
    failures: int = 0
    #: issue times of probes whose report is still outstanding (FIFO)
    pending: deque = field(default_factory=deque)


class HealthMonitor:
    """Keyed periodic health probes, optionally wired to breakers."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
    ) -> None:
        self._engine = engine
        self._obs: MetricsRegistry = metrics if metrics is not None else NULL_METRICS
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._watches: dict[str, _Watch] = {}
        #: probes and failures over every watch, stopped ones included
        self.probes = 0
        self.failures = 0
        self._obs = self._obs.read(self, {
            "resilience.health.probes": lambda: self.probes,
            "resilience.health.failures": lambda: self.failures,
        })
        self._trend_ratio: GaugeFamily = self._obs.gauge(
            "resilience.health.trend.success_ratio", labels=("key",)
        )
        self._trend_slope: GaugeFamily = self._obs.gauge(
            "resilience.health.trend.latency_slope", labels=("key",)
        )

    def watch(
        self,
        key: str,
        probe: Probe,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        """Probe *key* every period; feed results into *breaker* if given."""
        if key in self._watches:
            raise ConfigurationError(f"already watching {key!r}")
        task = PeriodicTask(self._engine, PROBE_PERIOD_S, lambda: self._probe(key))
        self._watches[key] = _Watch(
            probe=probe,
            breaker=breaker,
            task=task,
            trend=Window(TREND_WINDOW_S, TREND_SLOTS),
        )
        task.start()

    def stop(self, key: str | None = None) -> None:
        """Stop probing *key*, or every watch when ``None``."""
        keys = [key] if key is not None else list(self._watches)
        for name in keys:
            watch = self._watches.pop(name, None)
            if watch is not None:
                watch.task.stop()

    def _probe(self, key: str) -> None:
        watch = self._watches.get(key)
        if watch is None:
            return
        watch.probes += 1
        self.probes += 1
        watch.pending.append(self._engine.now)
        watch.probe(lambda healthy: self._report(key, healthy))

    def _report(self, key: str, healthy: bool) -> None:
        watch = self._watches.get(key)
        if watch is None:
            return
        now = self._engine.now
        issued = watch.pending.popleft() if watch.pending else now
        latency = now - issued
        watch.trend.add(
            now, (1, 1 if healthy else 0, now, latency, now * now, now * latency)
        )
        if healthy != watch.healthy and self._events.enabled:
            # Edge-triggered: one event per flip, not one per probe.
            self._events.record(
                self._engine.now, KIND_HEALTH_TRANSITION, key=key, healthy=healthy
            )
        watch.healthy = healthy
        if healthy:
            if watch.breaker is not None:
                watch.breaker.record_success()
            return
        watch.failures += 1
        self.failures += 1
        if watch.breaker is not None:
            watch.breaker.record_failure()

    def healthy(self, key: str) -> bool:
        """Last observed health for *key* (healthy when never probed)."""
        watch = self._watches.get(key)
        return True if watch is None else watch.healthy

    def trend(self, key: str) -> HealthTrend:
        """Success ratio and latency slope for *key* over the last
        :data:`TREND_WINDOW_S`.

        Reads the key's trend window, which has taken every report since
        the watch started, so the view is exactly as fresh as the probe
        cadence at O(slots) memory.  The slope is the least-squares fit
        over the window's moment sums.  An empty window (or an unwatched
        key) reads as healthy: absence of evidence is not degradation.
        Also exports the window through the labelled
        ``resilience.health.trend.*`` gauge families — the signal
        surface the adaptive control plane polls.
        """
        watch = self._watches.get(key)
        trend = HealthTrend(success_ratio=1.0, latency_slope=0.0, samples=0)
        if watch is not None:
            watch.trend.advance_to(self._engine.now)
            n, good, st, sl, stt, stl = watch.trend.sums(6)
            if n:
                denominator = n * stt - st * st
                slope = (
                    (n * stl - st * sl) / denominator
                    if abs(denominator) > 1e-12
                    else 0.0
                )
                trend = HealthTrend(
                    success_ratio=good / n, latency_slope=slope, samples=n
                )
        if self._obs.enabled:
            self._trend_ratio.labels(key=key).set(trend.success_ratio)
            self._trend_slope.labels(key=key).set(trend.latency_slope)
        return trend

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-key probe/failure counts and current verdicts."""
        return {
            key: {
                "healthy": watch.healthy,
                "probes": watch.probes,
                "failures": watch.failures,
            }
            for key, watch in sorted(self._watches.items())
        }
