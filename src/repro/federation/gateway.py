"""Inter-domain gateways: store-and-forward relay between two domains.

The paper's openness argument is inter-organisational: "the progression
towards open CSCW systems requires the consideration of co-operation
across different organisations" — which in ODP terms means crossing an
*administrative domain boundary*.  A :class:`Gateway` is the engineering
object sitting on that boundary: each domain runs one gateway endpoint
(an RPC server on its gateway node), and a directed ``Gateway`` object
per (source, target) pair relays exchange payloads over the simulated
inter-domain link.

Relay semantics are store-and-forward with at-least-once delivery:

* each relay gets an attempt budget: retries fire with exponential
  backoff (``retry_s * backoff ** (attempt-1)`` between attempts) while
  any in-flight attempt's reply — however late — can still settle the
  relay; exactly one of reply / dead-letter wins (the ``settled`` flag),
* every relay is stamped with a ``relay_id`` so the receiving side can
  deduplicate: at-least-once on the wire, at-most-once downstream,
* a relay that exhausts its budget lands in the gateway's **dead-letter
  queue** together with the reason, where an operator (or
  :meth:`Gateway.redrive` after the link heals) can pick it up,
* an optional per-relay ``deadline`` clamps the budget: a relay that
  cannot settle before its deadline fails with
  :data:`REASON_RELAY_DEADLINE` and is *not* parked (redriving an
  expired request helps nobody),
* an optional :class:`~repro.resilience.breaker.CircuitBreaker` gates
  admission: while the breaker is open new relays fail fast to the
  dead-letter queue (:data:`REASON_RELAY_CIRCUIT_OPEN`) instead of
  burning the full retry budget; attempt failures feed the breaker and
  :meth:`redrive` recloses it (redriving asserts the link healed),
* round-trip latency, retries and dead letters are exported as
  ``gateway.*`` metrics when a registry is attached.

The link itself is ordinary :mod:`repro.sim.network` fabric — the
federation sets an explicit :class:`~repro.sim.network.LinkSpec` between
the two gateway nodes, so link latency/loss/partition behaviour is
configurable per domain pair and observable in every relay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.context import TRACE_KEY, TraceContext
from repro.obs.events import (
    KIND_DEAD_LETTER,
    KIND_DEADLINE,
    KIND_REDRIVE,
    NULL_EVENTS,
    EventLog,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.resilience.breaker import CircuitBreaker
from repro.sim.engine import EventHandle
from repro.sim.transport import RequestReply
from repro.util.errors import ConfigurationError
from repro.util.ids import IdFactory
from repro.util.serialization import document_size

#: RPC port gateway endpoints listen on (one per domain gateway node)
GATEWAY_PORT = "gateway"

#: dead-letter reasons
REASON_RELAY_TIMEOUT = "relay timeout"
REASON_RELAY_CIRCUIT_OPEN = "circuit-open"
REASON_RELAY_DEADLINE = "deadline-exceeded"

#: histogram buckets for relay round-trip latency (simulated seconds)
LATENCY_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: reply callback — receives the remote handler's reply document
RelayReply = Callable[[dict[str, Any], int], None]
#: dead-letter callback — receives the dead letter entry
RelayFailed = Callable[["DeadLetter"], None]


@dataclass
class DeadLetter:
    """One relay that exhausted its attempts; parked for redelivery."""

    payload: dict[str, Any]
    target: str
    attempts: int
    reason: str
    parked_at: float
    #: filled when the dead letter is redriven
    redriven: bool = False
    #: original completion callbacks, reused on redrive
    _on_reply: RelayReply | None = field(default=None, repr=False)
    _on_dead_letter: RelayFailed | None = field(default=None, repr=False)


class _Relay:
    """Mutable state of one relay: its attempts and its single settlement."""

    __slots__ = ("payload", "on_reply", "on_dead_letter", "deadline",
                 "park_at", "size_bytes", "attempts", "settled", "span",
                 "budget_timer", "retry_timer")

    def __init__(
        self,
        payload: dict[str, Any],
        on_reply: RelayReply,
        on_dead_letter: RelayFailed | None,
        deadline: float | None,
    ) -> None:
        self.payload = payload
        self.on_reply = on_reply
        self.on_dead_letter = on_dead_letter
        self.deadline = deadline
        self.park_at = 0.0
        #: the payload's wire size, taken once at admission: every
        #: attempt sends the same (unchanging) payload
        self.size_bytes = 0
        self.attempts = 0
        self.settled = False
        #: detached gateway.relay span, open from launch to settlement
        self.span: Span | None = None
        #: pending budget/retry events, cancelled on settlement — a
        #: settled relay must not leave garbage events deepening the heap
        #: for the relay's whole unused budget window
        self.budget_timer: "EventHandle | None" = None
        self.retry_timer: "EventHandle | None" = None


class Gateway:
    """Directed store-and-forward relay from one domain to another.

    The gateway owns no transport of its own: it sends over the *source*
    domain's shared gateway RPC endpoint to the *target* domain's
    gateway node, where the federation's relay handler feeds the payload
    into the target environment's local exchange pipeline.
    """

    def __init__(
        self,
        rpc: RequestReply,
        source: str,
        target: str,
        target_node: str,
        retry_s: float = 0.5,
        max_attempts: int = 4,
        backoff: float = 2.0,
        metrics: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        if retry_s <= 0:
            raise ConfigurationError("gateway retry_s must be > 0")
        self._rpc = rpc
        self._engine = rpc._engine
        self.source = source
        self.target = target
        self.target_node = target_node
        self._retry_s = retry_s
        self._backoff = backoff
        self.set_attempt_budget(max_attempts)
        # per-link strings, built once rather than per relay
        link = f"{source}->{target}"
        self._relay_namespace = f"relay:{source}>{target}"
        self._budget_label = f"gateway-budget:{link}"
        self._retry_label = f"gateway-retry:{link}"
        self.attach_metrics(metrics)
        self._tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self.breaker = breaker
        self._ids = IdFactory(width=6)
        self.relays = 0
        self.delivered = 0
        self.retries = 0
        self.duplicate_replies = 0
        self.expired = 0
        self.fast_failed = 0
        self.dead_letters: list[DeadLetter] = []
        #: relays launched but not yet settled (queue-depth signal)
        self.in_flight = 0
        #: soft-drained by the control plane: routing avoids this gateway
        self.drained = False

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report relay activity to *metrics* (``None`` detaches).

        Counters ``gateway.relays``/``delivered``/``retries``/
        ``dead_letters``/``duplicate_replies``/``expired``/
        ``fast_failed`` plus the ``gateway.latency_s`` round-trip
        histogram (simulated seconds).  The same signals are also
        recorded per link through ``(source, target)``-labelled families
        (``gateway.relays{source=..,target=..}`` etc.), so one registry
        attributes traffic across every directed gateway of a
        federation; the per-link child handles are resolved once here,
        not per relay.
        """
        self._obs = metrics if metrics is not None else NULL_METRICS
        obs, link = self._obs, {"source": self.source, "target": self.target}
        self._m_relays = obs.counter("gateway.relays", labels=("source", "target")).labels(**link)
        self._m_delivered = obs.counter("gateway.delivered", labels=("source", "target")).labels(**link)
        self._m_retries = obs.counter("gateway.retries", labels=("source", "target")).labels(**link)
        self._m_dead_letters = obs.counter("gateway.dead_letters", labels=("source", "target")).labels(**link)
        self._m_expired = obs.counter("gateway.expired", labels=("source", "target")).labels(**link)
        self._m_latency = obs.histogram(
            "gateway.latency_s", buckets=LATENCY_BUCKETS, labels=("source", "target")
        ).labels(**link)

    def ready(self) -> bool:
        """Whether routing should currently prefer this gateway.

        Side-effect free; the federation's failover routing consults
        this before choosing a path.  False while the breaker is open
        *or* while the control plane has soft-drained the gateway —
        draining steers new relays onto an intermediate route without
        refusing admission (a drained gateway with no alternative path
        still relays).
        """
        if self.drained:
            return False
        return self.breaker is None or self.breaker.ready()

    def drain(self) -> None:
        """Soft-drain: make :meth:`ready` report False (idempotent).

        Used by the adaptive control plane to steer traffic away from a
        degrading link *before* its breaker trips.  Unlike an open
        breaker, a drained gateway still admits relays when the caller
        has no alternative route.
        """
        self.drained = True

    def undrain(self) -> None:
        """Lift a soft drain (idempotent)."""
        self.drained = False

    def set_attempt_budget(self, max_attempts: int) -> None:
        """Change the per-relay attempt budget at runtime.

        Applies to relays launched after the call; in-flight relays
        keep the budget they were admitted with.  The control plane
        uses this to open extra relay capacity under burn and restore
        the configured budget after recovery.
        """
        if max_attempts < 1:
            raise ConfigurationError("gateway needs max_attempts >= 1")
        self._max_attempts = max_attempts
        #: total simulated seconds one relay may spend before parking
        self._budget_s = sum(
            self._retry_s * (self._backoff ** k) for k in range(max_attempts)
        )

    @property
    def max_attempts(self) -> int:
        """The current per-relay attempt budget."""
        return self._max_attempts

    def relay(
        self,
        payload: dict[str, Any],
        on_reply: RelayReply,
        on_dead_letter: RelayFailed | None = None,
        deadline: float | None = None,
    ) -> None:
        """Relay *payload* to the target domain's gateway endpoint.

        *on_reply* fires with (reply_document, attempts) once the remote
        handler answers; after the attempt budget is exhausted the
        payload is parked in :attr:`dead_letters` and *on_dead_letter*
        (when given) fires instead.  Exactly one of the two callbacks
        fires per relay.  *deadline* (absolute simulated time) clamps
        the budget; a relay unsettled at its deadline fails with
        :data:`REASON_RELAY_DEADLINE` without being parked.
        """
        self.relays += 1
        self.in_flight += 1
        if self._obs.enabled:
            self._obs.inc("gateway.relays")
            self._m_relays.inc()
        payload.setdefault("relay_id", self._ids.next(self._relay_namespace))
        state = _Relay(payload, on_reply, on_dead_letter, deadline)
        if self._tracer.enabled:
            # Continue the trace the payload carries (or the caller's open
            # span) and re-stamp the payload so the receiving side parents
            # under this hop — the wire half of trace propagation.  The
            # ``domain`` tag matches the labelled metrics (the hop runs in
            # the source domain); ``sampled`` rides along so every hop
            # honours the decision made at the trace's origin.
            state.span = self._tracer.start_span(
                "gateway.relay",
                context=TraceContext.from_document(payload.get(TRACE_KEY)),
                source=self.source,
                target=self.target,
                domain=self.source,
            )
            if state.span.sampled:
                payload[TRACE_KEY] = {
                    "trace_id": state.span.trace_id,
                    "span_id": state.span.span_id,
                }
            else:
                payload[TRACE_KEY] = {
                    "trace_id": state.span.trace_id,
                    "span_id": state.span.span_id,
                    "sampled": False,
                }
        now = self._engine.now
        if deadline is not None and now >= deadline:
            self._settle_expired(state)
            return
        if self.breaker is not None and not self.breaker.allow():
            self.fast_failed += 1
            if self._obs.enabled:
                self._obs.inc("gateway.fast_failed")
            self._settle_parked(state, REASON_RELAY_CIRCUIT_OPEN)
            return
        state.size_bytes = document_size(payload)
        state.park_at = now + self._budget_s
        if deadline is not None:
            state.park_at = min(state.park_at, deadline)
        state.budget_timer = self._engine.schedule_at(
            state.park_at,
            lambda: self._on_budget_exhausted(state),
            label=self._budget_label,
        )
        self._launch(state)

    def _launch(self, state: _Relay) -> None:
        if state.settled:
            return
        state.attempts += 1
        attempt = state.attempts
        now = self._engine.now
        sent_at = now

        def deliver(reply: Any) -> None:
            self._settle_delivered(state, reply, sent_at)

        # The RPC window stays open for the relay's whole remaining
        # budget: a slow reply to an earlier attempt still settles the
        # relay (the settled flag keeps later replies from firing twice).
        self._rpc.request(
            self.target_node,
            "relay",
            state.payload,
            on_reply=deliver,
            timeout_s=max(state.park_at - now, self._retry_s * 0.01),
            size_bytes=state.size_bytes,
        )
        if attempt < self._max_attempts:
            delay = self._retry_s * (self._backoff ** (attempt - 1))
            if now + delay < state.park_at:
                state.retry_timer = self._engine.schedule(
                    delay,
                    lambda: self._retry(state),
                    label=self._retry_label,
                )

    def _cancel_timers(self, state: _Relay) -> None:
        """Drop a settled relay's pending budget/retry events.

        Without this every settled relay leaves events parked up to its
        whole unused budget window (~seconds of simulated time) in the
        engine heap, deepening every subsequent push/pop comparison.
        """
        if state.budget_timer is not None:
            state.budget_timer.cancel()
            state.budget_timer = None
        if state.retry_timer is not None:
            state.retry_timer.cancel()
            state.retry_timer = None

    def _retry(self, state: _Relay) -> None:
        state.retry_timer = None
        if state.settled:
            return
        self.retries += 1
        if self._obs.enabled:
            self._obs.inc("gateway.retries")
            self._m_retries.inc()
        self._note_failure()
        self._launch(state)

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _close_span(self, state: _Relay, outcome: str) -> None:
        """Finish the relay's detached span, stamped with how it ended."""
        if state.span is not None:
            state.span.tag(outcome=outcome, attempts=state.attempts)
            self._tracer.finish(state.span)

    def _trace_id(self, state: _Relay) -> str:
        """The trace a relay ran under, for event correlation."""
        if state.span is not None:
            return state.span.trace_id
        context = TraceContext.from_document(state.payload.get(TRACE_KEY))
        return context.trace_id if context is not None else ""

    def _settle_delivered(self, state: _Relay, reply: Any, sent_at: float) -> None:
        if state.settled:
            self.duplicate_replies += 1
            if self._obs.enabled:
                self._obs.inc("gateway.duplicate_replies")
            return
        state.settled = True
        self._cancel_timers(state)
        self.in_flight -= 1
        self.delivered += 1
        if self.breaker is not None:
            self.breaker.record_success()
        if self._obs.enabled:
            self._obs.inc("gateway.delivered")
            self._m_delivered.inc()
            latency = self._engine.now - sent_at
            self._obs.observe("gateway.latency_s", latency, buckets=LATENCY_BUCKETS)
            self._m_latency.observe(latency)
        self._close_span(state, "delivered")
        state.on_reply(reply, state.attempts)

    def _on_budget_exhausted(self, state: _Relay) -> None:
        state.budget_timer = None
        if state.settled:
            return
        self._note_failure()
        if state.deadline is not None and self._engine.now >= state.deadline:
            self._settle_expired(state)
            return
        self._settle_parked(state, REASON_RELAY_TIMEOUT)

    def _settle_expired(self, state: _Relay) -> None:
        """Deadline hit: fail the relay without parking it."""
        state.settled = True
        self._cancel_timers(state)
        self.in_flight -= 1
        self.expired += 1
        if self._obs.enabled:
            self._obs.inc("gateway.expired")
            self._m_expired.inc()
        self._close_span(state, REASON_RELAY_DEADLINE)
        if self._events.enabled:
            self._events.record(
                self._engine.now,
                KIND_DEADLINE,
                trace_id=self._trace_id(state),
                gateway=f"{self.source}->{self.target}",
                attempts=state.attempts,
            )
        letter = DeadLetter(
            payload=state.payload,
            target=self.target,
            attempts=state.attempts,
            reason=REASON_RELAY_DEADLINE,
            parked_at=self._engine.now,
            _on_reply=state.on_reply,
            _on_dead_letter=state.on_dead_letter,
        )
        if state.on_dead_letter is not None:
            state.on_dead_letter(letter)

    def _settle_parked(self, state: _Relay, reason: str) -> None:
        state.settled = True
        self._cancel_timers(state)
        self.in_flight -= 1
        self._close_span(state, reason)
        if self._events.enabled:
            self._events.record(
                self._engine.now,
                KIND_DEAD_LETTER,
                trace_id=self._trace_id(state),
                gateway=f"{self.source}->{self.target}",
                reason=reason,
                attempts=state.attempts,
            )
        letter = DeadLetter(
            payload=state.payload,
            target=self.target,
            attempts=state.attempts,
            reason=reason,
            parked_at=self._engine.now,
            _on_reply=state.on_reply,
            _on_dead_letter=state.on_dead_letter,
        )
        self.dead_letters.append(letter)
        if self._obs.enabled:
            self._obs.inc("gateway.dead_letters")
            self._m_dead_letters.inc()
        if state.on_dead_letter is not None:
            state.on_dead_letter(letter)

    def redrive(self) -> int:
        """Re-relay every parked dead letter (after the link healed).

        Redriving is an operator assertion that the link is back: the
        breaker (when present) is reclosed first so the redriven relays
        are admitted.  Each redriven payload gets a fresh attempt budget
        with its original callbacks; letters that fail again are parked
        again as new entries.  Returns the number of letters redriven.
        """
        if self.breaker is not None:
            self.breaker.reset()
        parked = [letter for letter in self.dead_letters if not letter.redriven]
        if parked and self._events.enabled:
            self._events.record(
                self._engine.now,
                KIND_REDRIVE,
                gateway=f"{self.source}->{self.target}",
                letters=len(parked),
            )
        for letter in parked:
            letter.redriven = True
            on_reply = letter._on_reply or (lambda reply, attempts: None)
            self.relay(letter.payload, on_reply, letter._on_dead_letter)
        return len(parked)

    def stats(self) -> dict[str, int]:
        """Relay counters, for ``Federation.describe()`` and the bench.

        ``dead_letters`` counts letters still awaiting redrive — a
        redriven letter is the same payload continuing its life as a new
        relay, not a second loss.
        """
        return {
            "relays": self.relays,
            "delivered": self.delivered,
            "retries": self.retries,
            "dead_letters": sum(
                1 for letter in self.dead_letters if not letter.redriven
            ),
        }
