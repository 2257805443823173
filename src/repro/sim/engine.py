"""The discrete-event simulation engine.

The engine keeps a priority queue of timed callbacks and a simulated clock.
Everything that "takes time" in the library — network transmission, MTA
relaying, meeting turns — is expressed by scheduling callbacks on a shared
engine, which makes whole-system runs deterministic and fast (no real
sleeping).

This stands in for the distributed testbed the paper's authors did not have
either; see DESIGN.md section 4 for the substitution rationale.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.obs.metrics import NULL_METRICS, LazyCounter, MetricsRegistry
from repro.util.errors import SchedulingError

Callback = Callable[[], None]

#: cancelled events are purged lazily; once this many linger the queue is
#: rebuilt in one pass (heap depth drives every push/pop comparison)
_COMPACT_THRESHOLD = 64


class _ScheduledEvent:
    """One queued callback; slotted and hand-ordered — heap comparisons
    are the engine's hottest operation, and the dataclass-generated
    ``__lt__`` built a tuple per comparison."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "_ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent, engine: "Engine | None" = None) -> None:
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        """Simulated time at which the callback fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled before firing."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self._event.cancelled:
            return
        self._event.cancelled = True
        if self._engine is not None:
            self._engine._note_cancel()


class Engine:
    """A deterministic discrete-event scheduler with a simulated clock."""

    def __init__(self) -> None:
        self._queue: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._running = False
        self._cancelled_pending = 0
        #: raising :class:`PeriodicTask` callbacks, read as ``sim.periodic.errors``
        self._periodic_errors = 0
        self._obs: MetricsRegistry = NULL_METRICS
        self._bind_instruments()

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report scheduling activity to *metrics* (``None`` detaches).

        Counters ``sim.engine.scheduled``/``fired``/``cancelled`` and the
        ``sim.engine.queue_depth`` gauge (``fired`` reads :attr:`processed_count`);
        with the default no-op registry the hot path pays one ``enabled`` check.
        """
        self._obs = (metrics or NULL_METRICS).read(
            self, {"sim.engine.fired": lambda: self._processed}, self._obs
        )
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        """Resolve the per-event instruments once — schedule/step fire on
        every simulated action, and the registry's name lookup is dict
        work the hot path need not repeat."""
        obs = self._obs
        self._scheduled_counter = obs.counter("sim.engine.scheduled")
        self._depth_gauge = obs.gauge("sim.engine.queue_depth")
        # bound on first use: a run that never cancels exports no
        # zero-valued series
        self._cancelled_counter = LazyCounter(obs, "sim.engine.cancelled")

    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        if self._obs.enabled:
            self._cancelled_counter.inc()
        queue = self._queue
        if (
            self._cancelled_pending > _COMPACT_THRESHOLD
            and self._cancelled_pending * 2 > len(queue)
        ):
            # Cancelled events are dead weight that deepens every heap
            # comparison until popped; once they dominate, rebuild.
            self._queue = [event for event in queue if not event.cancelled]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_count(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_count(self) -> int:
        """Number of events scheduled but not yet executed or cancelled."""
        return sum(1 for e in self._queue if not e.cancelled)

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule *callback* at exactly the absolute simulated *time*."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = _ScheduledEvent(time, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        if self._obs.enabled:
            self._scheduled_counter.inc()
            self._depth_gauge.set(len(self._queue))
        return EventHandle(event, self)

    def call_soon(self, callback: Callback) -> EventHandle:
        """Schedule *callback* at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback)

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._processed += 1
            if self._obs.enabled:
                self._depth_gauge.set(len(self._queue))
            event.callback()
            return True
        return False

    def _has_runnable(self) -> bool:
        """Drop cancelled events at the queue head; True when one remains."""
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        return bool(queue)

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue drains; return the number of events executed.

        *max_events* guards against runaway feedback loops: at most
        *max_events* events execute, and :class:`SchedulingError` is
        raised when the limit is hit with work still pending.
        """
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events and self._has_runnable():
                raise SchedulingError(f"exceeded max_events={max_events}")
        return executed

    def run_until(self, time: float, max_events: int = 1_000_000) -> int:
        """Run events with timestamp <= *time*; advance the clock to *time*.

        Events scheduled later than *time* remain queued.  As in
        :meth:`run`, at most *max_events* events execute before
        :class:`SchedulingError` is raised.
        """
        executed = 0
        while self._has_runnable() and self._queue[0].time <= time:
            if executed >= max_events:
                raise SchedulingError(f"exceeded max_events={max_events}")
            self.step()
            executed += 1
        self._now = max(self._now, time)
        return executed

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run for *duration* simulated seconds from now."""
        return self.run_until(self._now + duration, max_events=max_events)


class PeriodicTask:
    """Re-schedules a callback at a fixed period until stopped.

    Used by monitors (activity progress checks, directory shadowing) that
    poll on simulated time.  A callback that raises does **not** kill the
    task: the exception is swallowed, counted (``error_count`` and the
    engine's tally its registry reads as ``sim.periodic.errors``) and the next
    firing is armed anyway — one bad poll must not silently stop a
    monitor for the rest of the run.
    """

    def __init__(self, engine: Engine, period: float, callback: Callback) -> None:
        if period <= 0:
            raise SchedulingError("period must be > 0")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._stopped = False
        self._fired = 0
        self._errors = 0
        self._handle: EventHandle | None = None

    @property
    def fired_count(self) -> int:
        """Number of times the callback has run."""
        return self._fired

    @property
    def error_count(self) -> int:
        """Number of firings whose callback raised."""
        return self._errors

    def start(self) -> "PeriodicTask":
        """Arm the first firing one period from now; returns self."""
        self._handle = self._engine.schedule(self._period, self._fire)
        return self

    def stop(self) -> None:
        """Stop future firings (idempotent)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fired += 1
        try:
            self._callback()
        except Exception:
            self._errors += 1
            engine = self._engine
            # read from the first error on: an error-free run exports no series
            engine._obs.read(engine, {"sim.periodic.errors": lambda: engine._periodic_errors})
            engine._periodic_errors += 1
        if not self._stopped:
            self._handle = self._engine.schedule(self._period, self._fire)
