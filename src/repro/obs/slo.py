"""Service-level objectives over sliding sim-time windows.

An SLO turns the metrics the library already collects into a judgement:
*"≥ 99% of federated exchanges delivered over the last 60 simulated
seconds"* or *"p99 exchange latency under 2 s"*.  The
:class:`SLOEngine` samples the backing counters/histograms on a
periodic sim-time tick, pushes each tick's cumulative delta into a
ring-of-slots window (:class:`~repro.obs.windows.WindowedCounter` /
:class:`~repro.obs.windows.WindowedHistogram` — one slot per sample
period, memory O(window/period) regardless of run length), and raises
**burn-rate alerts** as ``slo-burn`` events when the error budget is
being consumed faster than the configured multiple.

Two objective shapes cover the acceptance experiments:

* :meth:`SLOEngine.add_ratio` — good/total counter pair (delivered
  ratio, policy acceptance, ...); burn rate is the window's error ratio
  divided by the budget ``1 - target``,
* :meth:`SLOEngine.add_latency` — a histogram quantile against a
  threshold (p99 exchange latency); the quantile is interpolated from
  the windowed bucket deltas, and the burn rate is the fraction of
  observations over the threshold divided by ``1 - quantile``.

Everything runs on the simulated clock via
:class:`~repro.sim.engine.PeriodicTask`; like health checks and
shadowing, a started engine keeps the event queue non-empty, so prefer
``world.run_for`` over ``world.run`` while it is live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.events import KIND_SLO_BURN, NULL_EVENTS, EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.windows import WindowedCounter, WindowedHistogram
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime: sim.engine imports obs
    from repro.sim.engine import Engine, PeriodicTask

#: a burn listener receives ``(objective_name, burning, status)`` on each
#: burn-alert edge — ``burning=True`` when an episode starts, ``False``
#: when it clears
BurnListener = Callable[[str, bool, dict[str, Any]], None]


@dataclass(frozen=True)
class RatioSLO:
    """Declarative form of :meth:`SLOEngine.add_ratio`.

    Lets objectives be stated up front
    (``SLOEngine(...).declare(RatioSLO(...))``) instead of added one
    keyword call at a time.
    """

    name: str
    good: str
    total: str
    target: float = 0.99
    window_s: float = 60.0
    burn_threshold: float = 2.0

    def declare(self, engine: "SLOEngine") -> None:
        """Install this objective on *engine*."""
        engine.add_ratio(
            self.name,
            good=self.good,
            total=self.total,
            target=self.target,
            window_s=self.window_s,
            burn_threshold=self.burn_threshold,
        )


@dataclass(frozen=True)
class LatencySLO:
    """Declarative form of :meth:`SLOEngine.add_latency`."""

    name: str
    histogram: str
    threshold_s: float
    quantile: float = 0.99
    window_s: float = 60.0
    burn_threshold: float = 2.0

    def declare(self, engine: "SLOEngine") -> None:
        """Install this objective on *engine*."""
        engine.add_latency(
            self.name,
            histogram=self.histogram,
            threshold_s=self.threshold_s,
            quantile=self.quantile,
            window_s=self.window_s,
            burn_threshold=self.burn_threshold,
        )


@dataclass
class _Objective:
    """Shared bookkeeping for one objective: window state and alerts.

    ``last`` is the cumulative reading at the most recent sampler tick;
    each tick pushes ``live - last`` into a ring whose slot width is the
    sample period, so the ring's sum is exactly the delta a cumulative
    baseline sample would have produced — at O(window / period) memory
    instead of retaining every sample.  The first tick only establishes
    ``last`` (there is no earlier reading to difference against).
    """

    name: str
    window_s: float
    burn_threshold: float
    #: ring slots = ceil(window_s / sample period), fixed at declaration
    slots: int = 0
    #: cumulative payload at the last sampler tick (None before any tick)
    last: Any = None
    #: currently in a burn-alert episode (edge-triggered events)
    alerting: bool = False
    alerts: int = 0


@dataclass
class _RatioObjective(_Objective):
    good: str = ""
    total: str = ""
    target: float = 0.0
    good_window: WindowedCounter | None = None
    total_window: WindowedCounter | None = None


@dataclass
class _LatencyObjective(_Objective):
    histogram: str = ""
    quantile: float = 0.99
    threshold_s: float = 0.0
    #: created lazily at the first tick, once the backing histogram's
    #: bucket layout is known
    window: WindowedHistogram | None = None


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

    def declare(self, *objectives: "RatioSLO | LatencySLO") -> "SLOEngine":
        """Install declarative objective specs.

        Accepts the frozen :class:`RatioSLO` / :class:`LatencySLO`
        shapes, so the objectives a control plane acts on are stated in
        one place before :meth:`start`.
        """
        for spec in objectives:
            spec.declare(self)
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
        objective.slots = max(
            1, int(math.ceil(objective.window_s / self._period_s - 1e-9))
        )
        if isinstance(objective, _RatioObjective):
            span = objective.slots * self._period_s
            objective.good_window = WindowedCounter(span, objective.slots)
            objective.total_window = WindowedCounter(span, objective.slots)
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
    def _read(self, objective: _Objective) -> Any:
        if isinstance(objective, _RatioObjective):
            return (
                self._metrics.counter(objective.good).value,
                self._metrics.counter(objective.total).value,
            )
        assert isinstance(objective, _LatencyObjective)
        histogram = self._metrics.histogram(objective.histogram)
        return (list(histogram.bucket_counts), histogram.maximum)

    def _advance(self, objective: _Objective, live: Any) -> None:
        """Push one tick's cumulative delta into the objective's window."""
        if isinstance(objective, _RatioObjective):
            if objective.last is not None:
                good0, total0 = objective.last
                objective.good_window.push(live[0] - good0)
                objective.total_window.push(live[1] - total0)
            objective.last = live
            return
        assert isinstance(objective, _LatencyObjective)
        counts, _maximum = live
        if objective.window is None:
            histogram = self._metrics.histogram(objective.histogram)
            objective.window = WindowedHistogram(
                objective.slots * self._period_s, objective.slots, histogram.bounds
            )
        if objective.last is not None:
            counts0 = objective.last[0]
            objective.window.push_counts(
                [c1 - c0 for c1, c0 in zip(counts, counts0)]
            )
        objective.last = live

    def _sample(self) -> None:
        now = self._engine.now
        for objective in self._objectives.values():
            live = self._read(objective)
            self._advance(objective, live)
            status = self._status(objective, live=live)
            burning = (
                status["burn_rate"] >= objective.burn_threshold
                and status["observations"] > 0
            )
            if burning and not objective.alerting:
                objective.alerts += 1
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
    def _status(self, objective: _Objective, live: Any = None) -> dict[str, Any]:
        if live is None:  # the sampler passes its fresh read to avoid a reread
            live = self._read(objective)
        # Window value = ring sum + whatever accrued since the last tick
        # (so evaluate() between ticks sees fresh traffic, exactly as a
        # cumulative-baseline difference would).
        if isinstance(objective, _RatioObjective):
            good1, total1 = live
            last = objective.last if objective.last is not None else (0, 0)
            good = objective.good_window.delta() + (good1 - last[0])
            total = objective.total_window.delta() + (total1 - last[1])
            ratio = good / total if total else 1.0
            budget = 1.0 - objective.target
            burn = ((1.0 - ratio) / budget) if budget > 0 else (
                0.0 if ratio >= 1.0 else float("inf")
            )
            return {
                "type": "ratio",
                "target": objective.target,
                "value": round(ratio, 6),
                "met": ratio >= objective.target,
                "burn_rate": burn,
                "observations": total,
            }
        assert isinstance(objective, _LatencyObjective)
        histogram = self._metrics.histogram(objective.histogram)
        counts1, maximum = live
        counts0 = (
            objective.last[0]
            if objective.last is not None
            else [0] * len(counts1)
        )
        windowed = (
            objective.window.counts()
            if objective.window is not None
            else [0] * len(counts1)
        )
        deltas = [
            w + (c1 - c0) for w, c1, c0 in zip(windowed, counts1, counts0)
        ]
        total = sum(deltas)
        value = self._bucket_quantile(
            histogram, deltas, total, objective.quantile, maximum
        )
        over = self._over_threshold(histogram, deltas, objective.threshold_s)
        budget = 1.0 - objective.quantile
        burn = (over / total / budget) if total else 0.0
        return {
            "type": "latency",
            "quantile": objective.quantile,
            "threshold_s": objective.threshold_s,
            "value": round(value, 6),
            "met": value <= objective.threshold_s,
            "burn_rate": burn,
            "observations": total,
        }

    @staticmethod
    def _bucket_quantile(
        histogram: Histogram,
        deltas: list[int],
        total: int,
        quantile: float,
        maximum: float,
    ) -> float:
        """The windowed quantile, read off the bucket upper bounds.

        The estimate is the upper bound of the bucket where the
        cumulative count crosses the quantile — conservative (never
        under-reports) and exact when observations sit on bounds.  The
        overflow bucket reports the histogram's running maximum.
        """
        if total <= 0:
            return 0.0
        rank = quantile * total
        cumulative = 0
        for bound, delta in zip(histogram.bounds, deltas):
            cumulative += delta
            if cumulative >= rank:
                return bound
        return maximum if maximum > float("-inf") else histogram.bounds[-1]

    @staticmethod
    def _over_threshold(
        histogram: Histogram, deltas: list[int], threshold_s: float
    ) -> int:
        """Windowed observations in buckets entirely above the threshold."""
        over = 0
        for bound, delta in zip(histogram.bounds, deltas):
            if bound > threshold_s:
                over += delta
        return over + deltas[-1]  # the +inf overflow bucket

    def evaluate(self) -> dict[str, dict[str, Any]]:
        """Current per-objective status over each sliding window."""
        results = {}
        for name, objective in sorted(self._objectives.items()):
            status = self._status(objective)
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
        cells: dict[str, int] = {}
        for name, objective in sorted(self._objectives.items()):
            if isinstance(objective, _RatioObjective):
                cells[name] = max(
                    objective.good_window.cells, objective.total_window.cells
                )
            else:
                assert isinstance(objective, _LatencyObjective)
                cells[name] = (
                    objective.window.cells if objective.window is not None else 0
                )
        return cells
