"""In-process publish/subscribe event bus with hierarchical topics.

The CSCW environment's *activity transparency* (paper section 4) requires
that "a set of objects cooperating in one activity ... not be disturbed by
other unrelated activities".  We realise this by scoping event delivery to
topics: subscribers name a topic prefix and only see events published at or
below it.  Topics are ``/``-separated paths, e.g. ``activity/act-0001/chat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


@dataclass(frozen=True)
class Event:
    """A published event: a topic, a payload, and the publisher's identity.

    ``time`` is the simulated time of publication: a bus with a bound
    clock (see :meth:`EventBus.bind_clock`) stamps it automatically, so
    events and trace spans agree on when things happened.
    """

    topic: str
    payload: Any
    source: str = ""
    time: float = 0.0


Handler = Callable[[Event], None]


def topic_matches(pattern: str, topic: str) -> bool:
    """Return True when *topic* falls under *pattern*.

    A pattern matches itself and any descendant topic.  The special pattern
    ``"*"`` matches every topic.

    >>> topic_matches("activity/a1", "activity/a1/chat")
    True
    >>> topic_matches("activity/a1", "activity/a2")
    False
    """
    if pattern == "*":
        return True
    if pattern == topic:
        return True
    return topic.startswith(pattern + "/")


@dataclass
class _Subscription:
    pattern: str
    handler: Handler
    subscriber: str
    token: int


class EventBus:
    """A synchronous, deterministic publish/subscribe bus.

    Handlers run inline in subscription order, which keeps simulations
    reproducible.  A handler that raises does not stop the publish: the
    error is counted (the tally a registry reads as ``events.handler_errors``)
    and the remaining handlers still run, so one subscriber's fault never
    reaches the publisher or the other subscribers.
    """

    def __init__(self) -> None:
        self._subs: list[_Subscription] = []
        self._next_token = 1
        self._delivered = 0
        self._published = 0
        #: handler calls that raised, read as ``events.handler_errors``
        self._handler_errors = 0
        self._clock: Callable[[], float] | None = None
        self._obs: MetricsRegistry = NULL_METRICS

    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        """Stamp events published without an explicit time from *clock*.

        The environment binds its engine's simulated clock here so every
        publish carries the simulated time it happened at; an unbound bus
        keeps the historical default of 0.0.
        """
        self._clock = clock

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report bus activity to *metrics* (``None`` detaches).

        Counters ``events.published``/``events.delivered`` read the bus's
        tallies; the ``events.fanout`` subscriber fan-out histogram is
        bound here once so :meth:`publish` never looks it up by name.
        """
        self._obs = (metrics or NULL_METRICS).read(self, {
            "events.published": lambda: self._published,
            "events.delivered": lambda: self._delivered,
        }, self._obs)
        self._m_fanout = self._obs.histogram("events.fanout")

    @property
    def delivered_count(self) -> int:
        """Total number of handler invocations so far."""
        return self._delivered

    @property
    def published_count(self) -> int:
        """Total number of publish calls so far."""
        return self._published

    def subscribe(self, pattern: str, handler: Handler, subscriber: str = "") -> int:
        """Register *handler* for events under *pattern*; return a token."""
        if not pattern:
            raise ValueError("pattern must be non-empty")
        token = self._next_token
        self._next_token += 1
        # Copy on write, like unsubscribe: a publish in progress keeps
        # iterating the list it started with.
        self._subs = [*self._subs, _Subscription(pattern, handler, subscriber, token)]
        return token

    def unsubscribe(self, token: int) -> bool:
        """Remove the subscription with *token*; return True if it existed."""
        before = len(self._subs)
        self._subs = [s for s in self._subs if s.token != token]
        return len(self._subs) < before

    def subscriptions_for(self, subscriber: str) -> list[str]:
        """Return the patterns a subscriber is currently registered under."""
        return [s.pattern for s in self._subs if s.subscriber == subscriber]

    def publish(
        self, topic: str, payload: Any, source: str = "", time: float | None = None
    ) -> int:
        """Publish an event; return the number of handlers that saw it.

        When *time* is omitted the bus stamps the bound clock's current
        value (0.0 on an unbound bus), so publishers need not thread the
        simulated time through themselves.  The :class:`Event` is built
        at the first matching subscription, so a publish nobody listens
        to builds none.
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        self._published += 1
        event = None
        count = 0
        for sub in self._subs:
            if topic_matches(sub.pattern, topic):
                if event is None:
                    if time is None:
                        time = self._clock() if self._clock is not None else 0.0
                    event = Event(topic=topic, payload=payload, source=source, time=time)
                try:
                    sub.handler(event)
                except Exception:
                    self._count_handler_error()
                count += 1
        self._delivered += count
        if self._obs.enabled:
            self._m_fanout.observe(count)
        return count

    def _count_handler_error(self) -> None:
        """Count one raising handler.  The registry reads the tally from
        the first error on, so an error-free run exports no series."""
        self._obs.read(self, {"events.handler_errors": lambda: self._handler_errors})
        self._handler_errors += 1


@dataclass
class EventRecorder:
    """A handler that records events, handy in tests and metrics.

    >>> bus = EventBus()
    >>> rec = EventRecorder()
    >>> _ = bus.subscribe("a", rec)
    >>> _ = bus.publish("a/b", 1)
    >>> rec.topics()
    ['a/b']
    """

    events: list[Event] = field(default_factory=list)

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def topics(self) -> list[str]:
        """Topics of recorded events, in delivery order."""
        return [e.topic for e in self.events]

    def payloads(self) -> list[Any]:
        """Payloads of recorded events, in delivery order."""
        return [e.payload for e in self.events]
