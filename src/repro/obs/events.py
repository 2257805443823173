"""Structured, trace-correlated events at load-bearing transitions.

Counters say *how often* a breaker opened; they cannot say *when*,
*in which order relative to the dead letters*, or *under which trace*.
An :class:`EventLog` fills that gap: a bounded ring buffer of
:class:`Event` records stamped with simulated time, an event ``kind``,
an optional ``trace_id`` correlating the event to a span tree, and
free-form attributes.

The library emits events at the transitions the resilience and
federation layers already count but could not sequence:

==========================  ==================================================
kind                        emitted by
==========================  ==================================================
``breaker-open``            :class:`~repro.resilience.breaker.CircuitBreaker`
``breaker-half-open``       breaker admitting a half-open trial call
``breaker-close``           breaker reclosing after a success
``gateway-dead-letter``     :class:`~repro.federation.gateway.Gateway` parking
``gateway-redrive``         operator redrive of parked dead letters
``shed``                    environment load shedding (``REASON_OVERLOAD``)
``deadline-exceeded``       environment/relay deadline expiry
``shadow-pull-failed``      directory shadowing pull failure
``slo-burn``                :class:`~repro.obs.slo.SLOEngine` burn-rate alert
``health-transition``       :class:`~repro.resilience.health.HealthMonitor`
                            key flipping healthy/unhealthy
``control-action``          :class:`~repro.control.plane.ControlPlane`
                            applying a reconfiguration action
``control-revert``          control plane reversing an applied action
                            after recovery
==========================  ==================================================

Like metrics and tracing, event logging is opt-in: components default to
:data:`NULL_EVENTS`, whose ``enabled`` is ``False``, and every ``record``
checks ``enabled`` first.  Attach a real log through
``CSCWEnvironment.builder().with_event_log(...)`` or
``Federation(events=...)``.

>>> log = EventLog(capacity=2)
>>> log.record(0.0, "breaker-open", name="gw:a->b")
>>> log.record(1.0, "shed"); log.record(2.0, "shed")
>>> [e.kind for e in log.events()]  # capacity 2: oldest evicted
['shed', 'shed']
>>> NULL_EVENTS.enabled
False
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.util.errors import ConfigurationError

#: canonical event kinds (free-form kinds are allowed; these are emitted
#: by the library itself)
KIND_BREAKER_OPEN = "breaker-open"
KIND_BREAKER_HALF_OPEN = "breaker-half-open"
KIND_BREAKER_CLOSE = "breaker-close"
KIND_DEAD_LETTER = "gateway-dead-letter"
KIND_REDRIVE = "gateway-redrive"
KIND_SHED = "shed"
KIND_DEADLINE = "deadline-exceeded"
KIND_SHADOW_PULL_FAILED = "shadow-pull-failed"
KIND_SLO_BURN = "slo-burn"
KIND_HEALTH_TRANSITION = "health-transition"
KIND_CONTROL_ACTION = "control-action"
KIND_CONTROL_REVERT = "control-revert"


@dataclass(frozen=True)
class Event:
    """One structured occurrence, stamped in simulated time."""

    time: float
    kind: str
    trace_id: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able view of the event."""
        return {
            "time": self.time,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """A bounded ring buffer of events; oldest entries are evicted.

    The log never grows past *capacity*, so it is safe to leave attached
    for a whole soak run: memory is O(capacity), and the ``dropped``
    counter records how many events aged out.
    """

    #: real logs record; the null log advertises False
    enabled = True

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError("event log capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self.recorded = 0
        self._metrics: Any = None

    def attach_metrics(self, metrics: Any) -> "EventLog":
        """Surface ring-buffer evictions as the ``obs.events.dropped``
        counter on *metrics*.

        The :attr:`dropped` property already answers "how many aged
        out?", but only to someone holding the log; the counter puts the
        same signal next to every other health metric, where SLOs and
        dashboards can see a ring sized too small for the run.
        """
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        return self

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound so far."""
        return self.recorded - len(self._events)

    def record(
        self, time: float, kind: str, trace_id: str = "", **attrs: Any
    ) -> None:
        """Append one event (evicting the oldest at capacity)."""
        events = self._events
        if self._metrics is not None and len(events) == self.capacity:
            self._metrics.inc("obs.events.dropped")
        events.append(Event(time=time, kind=kind, trace_id=trace_id, attrs=attrs))
        self.recorded += 1

    def events(
        self, kind: str | None = None, trace_id: str | None = None
    ) -> list[Event]:
        """Retained events in arrival order, optionally filtered."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (trace_id is None or event.trace_id == trace_id)
        ]

    def kinds(self) -> dict[str, int]:
        """Retained event counts by kind (sorted for stable snapshots)."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_dicts(self) -> list[dict[str, Any]]:
        """All retained events as JSON-able dicts."""
        return [event.to_dict() for event in self._events]

    def clear(self) -> None:
        """Forget all retained events (the ``recorded`` total keeps counting
        from zero again)."""
        self._events.clear()
        self.recorded = 0

    def extend(self, events: Iterable[Event]) -> None:
        """Append pre-built events (merging logs in analysis scripts)."""
        ring = self._events
        for event in events:
            if self._metrics is not None and len(ring) == self.capacity:
                self._metrics.inc("obs.events.dropped")
            ring.append(event)
            self.recorded += 1


class NullEventLog(EventLog):
    """The default, disabled log: ``enabled`` is ``False``.

    ``enabled`` is the one off-switch: every ``record`` checks it first,
    so nothing records here; this log exists only to be bound.
    """

    enabled = False


#: a clock-reading callable, as bound by components that own an engine
Clock = Callable[[], float]

#: the shared disabled log every component starts with
NULL_EVENTS = NullEventLog()
