"""Service-level objectives over sliding sim-time windows.

An SLO turns the metrics the library already collects into a judgement:
*"≥ 99% of federated exchanges delivered over the last 60 simulated
seconds"* or *"p99 exchange latency under 2 s"*.  The
:class:`SLOEngine` samples the backing counters/histograms on a
periodic sim-time tick, pushes each tick's cumulative delta into a
ring-of-slots :class:`~repro.obs.windows.Window` (one slot per sample
period, memory O(window/period) regardless of run length), and raises
**burn-rate alerts** as ``slo-burn`` events when the error budget is
being consumed faster than the configured multiple.

Objectives are declared one way, with one call per shape:

* :meth:`SLOEngine.add_ratio` — good/total counter pair (delivered
  ratio, policy acceptance, ...), windowed as (good, total) pairs; burn
  rate is the window's error ratio divided by the budget ``1 - target``,
* :meth:`SLOEngine.add_latency` — a histogram quantile against a
  threshold (p99 exchange latency), windowed as bucket deltas; the
  quantile is the upper bound of the bucket that crosses it, and the
  burn rate is the fraction of observations over the threshold divided
  by ``1 - quantile``.

Everything runs on the simulated clock via
:class:`~repro.sim.engine.PeriodicTask`; like health checks and
shadowing, a started engine keeps the event queue non-empty, so prefer
``world.run_for`` over ``world.run`` while it is live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.events import KIND_SLO_BURN, NULL_EVENTS, EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.windows import Window
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime: sim.engine imports obs
    from repro.sim.engine import Engine, PeriodicTask

#: a burn listener receives ``(objective_name, burning, status)`` on each
#: burn-alert edge — ``burning=True`` when an episode starts, ``False``
#: when it clears
BurnListener = Callable[[str, bool, dict[str, Any]], None]


@dataclass(kw_only=True)
class _Objective:
    """One objective: its window of per-tick deltas and its alert state.

    ``last`` is the cumulative reading at the most recent sampler tick;
    each tick pushes ``live - last`` into ``window`` (one slot per
    sample period), so the ring's sum is exactly the delta a cumulative
    baseline sample would have produced — at O(window / period) memory
    instead of retaining every sample.  The first tick only establishes
    ``last`` (there is no earlier reading to difference against).  Each
    kind states what it reads and how it judges the windowed sums.
    """

    name: str
    window_s: float
    burn_threshold: float
    #: one slot per sample period, built by :meth:`SLOEngine._add`
    window: Window | None = None
    #: cumulative reading at the last sampler tick (None before any tick)
    last: list | None = None
    #: currently in a burn-alert episode (edge-triggered events)
    alerting: bool = False
    alerts: int = 0

    def read(self, metrics: MetricsRegistry) -> list:
        """The live cumulative vector this objective watches."""
        raise NotImplementedError

    def status(self, metrics: MetricsRegistry, sums: list) -> dict[str, Any]:
        """The verdict on *sums*, the vector accrued inside the window."""
        raise NotImplementedError

    def advance(self, live: list) -> None:
        """Push one tick's cumulative delta into the window."""
        if self.last is not None:
            self.window.push([c1 - c0 for c1, c0 in zip(live, self.last)])
        self.last = live

    def windowed(self, live: list) -> list:
        """Ring sums plus whatever accrued since the last tick, so a read
        between ticks sees fresh traffic, exactly as a cumulative-baseline
        difference would."""
        last = self.last if self.last is not None else [0] * len(live)
        return [
            w + (c1 - c0)
            for w, c1, c0 in zip(self.window.sums(len(live)), live, last)
        ]


@dataclass(kw_only=True)
class _RatioObjective(_Objective):
    """A window of (good, total) pairs against a target ratio."""

    good: str
    total: str
    target: float

    def read(self, metrics: MetricsRegistry) -> list:
        return [metrics.counter(self.good).value, metrics.counter(self.total).value]

    def status(self, metrics: MetricsRegistry, sums: list) -> dict[str, Any]:
        good, total = sums
        ratio = good / total if total else 1.0
        budget = 1.0 - self.target
        burn = ((1.0 - ratio) / budget) if budget > 0 else (
            0.0 if ratio >= 1.0 else float("inf")
        )
        return {
            "type": "ratio",
            "target": self.target,
            "value": round(ratio, 6),
            "met": ratio >= self.target,
            "burn_rate": burn,
            "observations": total,
        }


@dataclass(kw_only=True)
class _LatencyObjective(_Objective):
    """A window of a histogram's bucket deltas against a quantile bound."""

    histogram: str
    quantile: float
    threshold_s: float

    def read(self, metrics: MetricsRegistry) -> list:
        return list(metrics.histogram(self.histogram).bucket_counts)

    def status(self, metrics: MetricsRegistry, sums: list) -> dict[str, Any]:
        histogram = metrics.histogram(self.histogram)
        total = sum(sums)
        value = _bucket_quantile(histogram, sums, total, self.quantile)
        # observations in buckets entirely above the threshold, plus the
        # +inf overflow bucket
        over = sums[-1] + sum(
            delta
            for bound, delta in zip(histogram.bounds, sums)
            if bound > self.threshold_s
        )
        budget = 1.0 - self.quantile
        burn = (over / total / budget) if total else 0.0
        return {
            "type": "latency",
            "quantile": self.quantile,
            "threshold_s": self.threshold_s,
            "value": round(value, 6),
            "met": value <= self.threshold_s,
            "burn_rate": burn,
            "observations": total,
        }


def _bucket_quantile(
    histogram: Histogram, deltas: list[int], total: int, quantile: float
) -> float:
    """The windowed quantile, read off the bucket upper bounds.

    The estimate is the upper bound of the bucket where the cumulative
    count crosses the quantile — conservative (never under-reports) and
    exact when observations sit on bounds.  The overflow bucket reports
    the histogram's running maximum.
    """
    if total <= 0:
        return 0.0
    rank = quantile * total
    cumulative = 0
    for bound, delta in zip(histogram.bounds, deltas):
        cumulative += delta
        if cumulative >= rank:
            return bound
    maximum = histogram.maximum
    return maximum if maximum > float("-inf") else histogram.bounds[-1]


class SLOEngine:
    """Evaluates objectives over sliding windows; alerts on budget burn."""

    def __init__(
        self,
        engine: "Engine",
        metrics: MetricsRegistry,
        events: EventLog | None = None,
        sample_period_s: float = 1.0,
    ) -> None:
        if sample_period_s <= 0:
            raise ConfigurationError("SLO sample_period_s must be > 0")
        self._engine = engine
        self._metrics = metrics
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._period_s = sample_period_s
        self._objectives: dict[str, _Objective] = {}
        self._task: "PeriodicTask | None" = None
        self._burn_listeners: list[BurnListener] = []

    # -- objective declaration ---------------------------------------------
    def add_ratio(
        self,
        name: str,
        good: str,
        total: str,
        target: float = 0.99,
        window_s: float = 60.0,
        burn_threshold: float = 2.0,
    ) -> "SLOEngine":
        """Require counter *good* / counter *total* >= *target* per window.

        *burn_threshold* is the alerting multiple: an alert fires when
        the window's error ratio exceeds ``burn_threshold * (1 - target)``
        — budget burning at that many times the sustainable rate.
        """
        if not 0.0 < target <= 1.0:
            raise ConfigurationError("ratio target must be in (0, 1]")
        self._add(
            _RatioObjective(
                name=name,
                window_s=window_s,
                burn_threshold=burn_threshold,
                good=good,
                total=total,
                target=target,
            )
        )
        return self

    def add_latency(
        self,
        name: str,
        histogram: str,
        threshold_s: float,
        quantile: float = 0.99,
        window_s: float = 60.0,
        burn_threshold: float = 2.0,
    ) -> "SLOEngine":
        """Require the histogram's windowed *quantile* <= *threshold_s*."""
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError("latency quantile must be in (0, 1)")
        if threshold_s <= 0:
            raise ConfigurationError("latency threshold_s must be > 0")
        self._add(
            _LatencyObjective(
                name=name,
                window_s=window_s,
                burn_threshold=burn_threshold,
                histogram=histogram,
                quantile=quantile,
                threshold_s=threshold_s,
            )
        )
        return self

    def add_burn_listener(self, callback: BurnListener) -> "SLOEngine":
        """Call *callback*(name, burning, status) on every burn edge.

        Edge-triggered like the ``slo-burn`` events: once when an
        episode starts (``burning=True``) and once when it clears
        (``burning=False``).  The adaptive control plane subscribes
        here to drive remediation.
        """
        self._burn_listeners.append(callback)
        return self

    def _add(self, objective: _Objective) -> None:
        if objective.name in self._objectives:
            raise ConfigurationError(f"objective {objective.name!r} already declared")
        if objective.window_s <= 0:
            raise ConfigurationError("objective window_s must be > 0")
        # One ring slot per sample period; a window that is not an exact
        # multiple of the period rounds up (the baseline a cumulative
        # sampler would have kept spans whole periods too).
        slots = max(1, int(math.ceil(objective.window_s / self._period_s - 1e-9)))
        objective.window = Window(slots * self._period_s, slots)
        self._objectives[objective.name] = objective

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SLOEngine":
        """Arm periodic sampling (idempotent); returns self."""
        from repro.sim.engine import PeriodicTask

        if self._task is None:
            self._task = PeriodicTask(self._engine, self._period_s, self._sample).start()
        return self

    def stop(self) -> None:
        """Stop sampling (the frozen windows keep answering evaluate())."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- sampling ----------------------------------------------------------
    def _sample(self) -> None:
        now = self._engine.now
        for objective in self._objectives.values():
            live = objective.read(self._metrics)
            objective.advance(live)
            status = objective.status(self._metrics, objective.windowed(live))
            burning = (
                status["burn_rate"] >= objective.burn_threshold
                and status["observations"] > 0
            )
            if burning and not objective.alerting:
                objective.alerts += 1
                if self._events.enabled:
                    self._events.record(
                        now,
                        KIND_SLO_BURN,
                        objective=objective.name,
                        burn_rate=round(status["burn_rate"], 4),
                        value=status["value"],
                    )
            edge = burning != objective.alerting
            objective.alerting = burning
            if edge:
                for listener in self._burn_listeners:
                    listener(objective.name, burning, status)

    # -- evaluation --------------------------------------------------------
    def evaluate(self) -> dict[str, dict[str, Any]]:
        """Current per-objective status over each sliding window."""
        results = {}
        for name, objective in sorted(self._objectives.items()):
            live = objective.read(self._metrics)
            status = objective.status(self._metrics, objective.windowed(live))
            status["window_s"] = objective.window_s
            status["alerts"] = objective.alerts
            status["alerting"] = objective.alerting
            results[name] = status
        return results

    def healthy(self) -> bool:
        """True when every objective is currently met."""
        return all(status["met"] for status in self.evaluate().values())

    def window_cells(self) -> dict[str, int]:
        """Live ring cells per objective — the engine's window memory.

        Bounded by each objective's slot count no matter how long the
        run: the soak benchmark samples this mid-run and at the end to
        prove the windows hold O(window / period) state, not O(events).
        """
        return {
            name: objective.window.cells
            for name, objective in sorted(self._objectives.items())
        }
