"""Inter-domain gateways: store-and-forward relay between two domains.

The paper's openness argument is inter-organisational: "the progression
towards open CSCW systems requires the consideration of co-operation
across different organisations" — which in ODP terms means crossing an
*administrative domain boundary*.  A :class:`Gateway` is the engineering
object sitting on that boundary: each domain runs one gateway endpoint
(an RPC server on its gateway node), and a directed ``Gateway`` object
per (source, target) pair relays exchange payloads over the simulated
inter-domain link.

A gateway is a :class:`~repro.sim.transport.StoreAndForward` relay (the
stack's one retry loop: attempt budget, backoff, one timer per relay,
deadline clamp, ``relay_id`` for the receiver's dedup, one settlement)
plus the parts that belong to a domain boundary:

* a relay that exhausts its budget lands in the **dead-letter queue**
  with its reason, for an operator or :meth:`Gateway.redrive` after the
  link heals; a relay its ``deadline`` clamped fails with
  :data:`REASON_RELAY_DEADLINE` and is *not* parked (redriving an
  expired request helps nobody),
* an optional :class:`~repro.resilience.breaker.CircuitBreaker` gates
  admission: while it is open new relays fail fast to the dead-letter
  queue (:data:`REASON_RELAY_CIRCUIT_OPEN`); each retry and each
  unanswered window feeds it, and :meth:`redrive` recloses it,
* the control plane can soft-drain a gateway to steer routing away,
* ``gateway.*`` metrics, a ``gateway.relay`` span per relay, and
  expiry, dead-letter and redrive events.

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
from repro.sim.transport import RequestReply, StoreAndForward
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
    #: the payload's wire charge, taken once when it was first relayed
    size_bytes: int
    #: original completion callbacks, reused on redrive
    _on_reply: RelayReply = field(repr=False)
    _on_dead_letter: RelayFailed | None = field(default=None, repr=False)
    #: filled when the dead letter is redriven
    redriven: bool = False


class Gateway(StoreAndForward):
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
        super().__init__(
            rpc, target_node, "relay", f"relay:{source}>{target}",
            retry_s=retry_s, max_attempts=max_attempts, backoff=backoff,
        )
        self.source = source
        self.target = target
        self._tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self.breaker = breaker
        self.relays = 0
        self.delivered = 0
        self.expired = 0
        self.fast_failed = 0
        self.dead_letters: list[DeadLetter] = []
        # ``gateway.*`` counters read the tallies, flat and per directed link;
        # the ``gateway.latency_s`` histogram (simulated seconds) is pushed
        link = {"source": source, "target": target}
        tallies: dict[str, Callable[[], int]] = {
            "gateway.relays": lambda: self.relays,
            "gateway.delivered": lambda: self.delivered,
            "gateway.retries": lambda: self.retries,
            "gateway.dead_letters": lambda: len(self.dead_letters),
            "gateway.expired": lambda: self.expired,
        }
        obs = self._obs = (metrics or NULL_METRICS).read(self, {
            **tallies,
            "gateway.fast_failed": lambda: self.fast_failed,
            "gateway.duplicate_replies": lambda: self.duplicate_replies,
        })
        obs.read(self, tallies, labels=link)
        self._m_latency = obs.histogram(
            "gateway.latency_s", buckets=LATENCY_BUCKETS, labels=("source", "target")
        ).labels(**link)
        #: relays launched but not yet settled (queue-depth signal)
        self.in_flight = 0
        #: soft-drained by the control plane: routing avoids this gateway
        self.drained = False

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

    def relay(
        self,
        payload: dict[str, Any],
        on_reply: RelayReply,
        on_dead_letter: RelayFailed | None = None,
        deadline: float | None = None,
        size_bytes: int | None = None,
    ) -> int:
        """Relay *payload* to the target domain's gateway endpoint.

        *on_reply* fires with (reply_document, attempts) once the remote
        handler answers; after the attempt budget is exhausted the
        payload is parked in :attr:`dead_letters` and *on_dead_letter*
        (when given) fires instead.  Exactly one of the two callbacks
        fires per relay.  *deadline* (absolute simulated time) clamps
        the budget; a relay unsettled at its deadline fails with
        :data:`REASON_RELAY_DEADLINE` without being parked.

        The payload is charged to the link once, not per attempt: its
        ``document_size`` is taken after its ``relay_id`` is stamped and
        before any trace context is written, since tracing must not move
        simulated time.  A redriven letter and a forwarded relay pass the
        charge taken when the payload was first relayed as *size_bytes*.
        Returns the charge.
        """
        self.relays += 1
        self.in_flight += 1
        self.stamp(payload)
        if size_bytes is None:
            size_bytes = document_size(payload)
        span = None
        if self._tracer.enabled:
            # Continue the trace the payload carries (or the caller's open
            # span) and re-stamp the payload so the receiving side parents
            # under this hop; ``sampled`` rides along so every hop honours
            # the origin's decision.  The ``domain`` tag matches the metrics.
            span = self._tracer.start_span(
                "gateway.relay",
                context=TraceContext.from_document(payload.get(TRACE_KEY)),
                source=self.source,
                target=self.target,
                domain=self.source,
            )
            payload[TRACE_KEY] = TraceContext(
                span.trace_id, span.span_id, span.sampled
            ).to_document()
        if deadline is not None and self._engine.now >= deadline:
            self._fail(payload, size_bytes, on_reply, on_dead_letter, span, 0,
                       REASON_RELAY_DEADLINE)
            return size_bytes
        if self.breaker is not None and not self.breaker.allow():
            self.fast_failed += 1
            self._fail(payload, size_bytes, on_reply, on_dead_letter, span, 0,
                       REASON_RELAY_CIRCUIT_OPEN)
            return size_bytes

        def delivered(reply: Any, attempts: int, sent_at: float) -> None:
            self.in_flight -= 1
            self.delivered += 1
            if self.breaker is not None:
                self.breaker.record_success()
            if self._obs.enabled:
                latency = self._engine.now - sent_at
                self._obs.observe("gateway.latency_s", latency, buckets=LATENCY_BUCKETS)
                self._m_latency.observe(latency)
            self._close_span(span, "delivered", attempts)
            on_reply(reply, attempts)

        def failed(attempts: int, expired: bool) -> None:
            self._note_failure()
            self._fail(payload, size_bytes, on_reply, on_dead_letter, span, attempts,
                       REASON_RELAY_DEADLINE if expired else REASON_RELAY_TIMEOUT)

        self.send(payload, size_bytes, delivered, failed, deadline)
        return size_bytes

    def _retried(self) -> None:
        self._note_failure()

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _close_span(self, span: Span | None, outcome: str, attempts: int) -> None:
        """Finish a relay's detached span, stamped with how it ended."""
        if span is not None:
            span.tag(outcome=outcome, attempts=attempts)
            self._tracer.finish(span)

    def _fail(
        self,
        payload: dict[str, Any],
        size_bytes: int,
        on_reply: RelayReply,
        on_dead_letter: RelayFailed | None,
        span: Span | None,
        attempts: int,
        reason: str,
    ) -> None:
        """Settle a relay no reply answered: a deadline expires it,
        anything else parks it in the dead-letter queue."""
        self.in_flight -= 1
        expired = reason == REASON_RELAY_DEADLINE
        if expired:
            self.expired += 1
        self._close_span(span, reason, attempts)
        if self._events.enabled:
            if span is not None:
                trace_id = span.trace_id
            else:
                context = TraceContext.from_document(payload.get(TRACE_KEY))
                trace_id = context.trace_id if context is not None else ""
            detail: dict[str, Any] = {"gateway": f"{self.source}->{self.target}"}
            if not expired:
                detail["reason"] = reason
            detail["attempts"] = attempts
            self._events.record(
                self._engine.now,
                KIND_DEADLINE if expired else KIND_DEAD_LETTER,
                trace_id=trace_id,
                **detail,
            )
        letter = DeadLetter(
            payload=payload,
            target=self.target,
            attempts=attempts,
            reason=reason,
            parked_at=self._engine.now,
            size_bytes=size_bytes,
            _on_reply=on_reply,
            _on_dead_letter=on_dead_letter,
        )
        if not expired:
            self.dead_letters.append(letter)
        if on_dead_letter is not None:
            on_dead_letter(letter)

    def redrive(self) -> int:
        """Re-relay every parked dead letter (after the link healed).

        Redriving is an operator assertion that the link is back: the
        breaker (when present) is reclosed first so the redriven relays
        are admitted.  Each redriven payload gets a fresh attempt budget
        with its original callbacks and wire charge (the payload now
        carries a trace context, which the charge leaves out); letters
        that fail again are parked again as new entries.  Returns the
        number of letters redriven.
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
            self.relay(
                letter.payload, letter._on_reply, letter._on_dead_letter,
                size_bytes=letter.size_bytes,
            )
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
