"""Transport protocols layered over the raw datagram network.

Two facilities, the second built on the first:

* :class:`RequestReply` — correlated request/response exchange with
  optional timeouts.  Used by the ODP binding machinery (client stubs),
  the directory DUA/DSA protocol, the X.400 user agents and, through
  :class:`StoreAndForward`, the MTAs and the federation's gateways.
* :class:`StoreAndForward` — at-least-once relay of payloads to one
  operation on one fixed server, with an attempt budget, backoff and an
  optional deadline: the one retry loop of the stack.  X.400 transfer
  between MTAs and relay between administrative domains both run on it.
  Each relay stamps a ``relay_id`` on its payload, and the receiving side
  answers a repeated id from its memo (:func:`remember_reply`), so a
  retry is never processed twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.sim.engine import EventHandle
from repro.sim.network import Network, Packet
from repro.util.errors import ConfigurationError

#: the wire size every RPC reply is charged
REPLY_SIZE_BYTES = 128


@dataclass(slots=True)
class _PendingRequest:
    request_id: str
    on_reply: Callable[[Any], None]
    on_timeout: Callable[[], None] | None
    timer: EventHandle | None = None


class DeferredReply:
    """Returned by a :class:`RequestReply` handler that answers later.

    A handler that must itself wait on asynchronous work (e.g. a gateway
    forwarding a relay to a third domain) returns a ``DeferredReply``
    instead of a reply body; the transport holds the request open and
    sends the reply packet when :meth:`resolve` fires.  Only the first
    completion wins — later calls are ignored.
    """

    def __init__(self) -> None:
        self._send: Callable[[str, Any], None] | None = None
        self._result: tuple[str, Any] | None = None
        self._done = False

    def resolve(self, body: Any) -> None:
        """Complete the request with *body*."""
        if self._done:
            return
        self._done = True
        if self._send is not None:
            self._send("body", body)
        else:
            self._result = ("body", body)

    def _wire(self, send: Callable[[str, Any], None]) -> None:
        """Transport hookup; replays a completion that beat the wiring."""
        self._send = send
        if self._result is not None:
            send(*self._result)


class RequestReply:
    """Correlated request/reply messaging for RPC-style interactions.

    A server registers operations with :meth:`serve`; clients call
    :meth:`request`.  Replies are matched by request id.  A per-request
    timeout fires ``on_timeout`` if no reply arrives (e.g. server crashed or
    a partition intervened).  A caller that keeps its own timer passes
    ``timeout_s=None`` and ends the request's reply window with
    :meth:`drop`.
    """

    def __init__(self, network: Network, local: str, port: str = "rpc") -> None:
        self._network = network
        self._engine = network.engine
        self._local = local
        #: numbers this endpoint's request ids: ``req-000001``, ...
        self._request_seq = itertools.count(1)
        self._pending: dict[str, _PendingRequest] = {}
        self._operations: dict[str, Callable[[Any], Any]] = {}
        self.requests_sent = 0
        self.replies_received = 0
        self.timeouts = 0
        #: this endpoint's request and reply port names
        self._request_port = f"{port}.req"
        self._reply_port = f"{port}.rep"
        node = network.node(local)
        node.bind(self._request_port, self._handle_request)
        node.bind(self._reply_port, self._handle_reply)

    def serve(self, operation: str, handler: Callable[[Any], Any]) -> None:
        """Expose *operation*; the handler maps request body -> reply body."""
        if operation in self._operations:
            raise ConfigurationError(f"operation {operation!r} already served on {self._local}")
        self._operations[operation] = handler

    def request(
        self,
        server: str,
        operation: str,
        body: Any,
        on_reply: Callable[[Any], None],
        timeout_s: float | None = 5.0,
        on_timeout: Callable[[], None] | None = None,
        size_bytes: int = 128,
        server_port: str | None = None,
    ) -> str:
        """Send a request; *on_reply* fires with the reply body.

        *server_port* addresses a server endpoint whose port name differs
        from this client's (defaults to the shared port).  With
        *timeout_s* ``None`` no timer is armed: the request stays pending
        until its reply arrives or the caller calls :meth:`drop`.
        """
        request_id = f"req-{next(self._request_seq):06d}"
        pending = _PendingRequest(request_id, on_reply, on_timeout)
        self._pending[request_id] = pending
        self.requests_sent += 1
        self._network.send(
            self._local,
            server,
            self._request_port if server_port is None else f"{server_port}.req",
            {
                "id": request_id,
                "op": operation,
                "body": body,
                "reply_to": self._local,
                "reply_port": self._reply_port,
            },
            size_bytes,
        )
        if timeout_s is not None:
            pending.timer = self._engine.schedule(
                timeout_s, lambda: self._on_request_timeout(request_id)
            )
        return request_id

    def drop(self, request_id: str) -> None:
        """End a request's reply window without a timeout (idempotent).

        A reply that arrives later is ignored, as one arriving after a
        timeout is; ``on_timeout`` does not fire.
        """
        pending = self._pending.pop(request_id, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _on_request_timeout(self, request_id: str) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        self.timeouts += 1
        if pending.on_timeout is not None:
            pending.on_timeout()

    def _handle_request(self, packet: Packet) -> None:
        message = packet.payload
        handler = self._operations.get(message["op"])
        if handler is None:
            self._reply(message, "error", f"unknown operation {message['op']!r}")
            return
        try:
            result = handler(message["body"])
        except Exception as exc:  # deliberate: errors travel back to caller
            self._reply(message, "error", f"{type(exc).__name__}: {exc}")
            return
        if isinstance(result, DeferredReply):
            result._wire(lambda kind, value: self._reply(message, kind, value))
            return
        self._reply(message, "body", result)

    def _reply(self, message: dict[str, Any], kind: str, value: Any) -> None:
        """Answer the request *message* with its reply (*kind* is
        ``"body"`` or ``"error"``)."""
        self._network.send(
            self._local,
            message["reply_to"],
            message.get("reply_port", self._reply_port),
            {"id": message["id"], kind: value},
            REPLY_SIZE_BYTES,
        )

    def _handle_reply(self, packet: Packet) -> None:
        message = packet.payload
        pending = self._pending.pop(message["id"], None)
        if pending is None:
            return  # late reply after timeout
        if pending.timer is not None:
            pending.timer.cancel()
        self.replies_received += 1
        pending.on_reply(message.get("body") if "error" not in message else {"error": message["error"]})


#: replies a receiver remembers by ``relay_id``; every retry of one relay
#: lands within its budget window (seconds of simulated time), so FIFO
#: eviction far beyond that window keeps at-most-once processing while
#: bounding the memo over long soaks
RELAY_SEEN_LIMIT = 2048


def remember_reply(seen: dict[str, Any], relay_id: str, reply: Any) -> None:
    """Record *reply* in a receiver's ``relay_id`` memo, evicting the
    oldest entry past :data:`RELAY_SEEN_LIMIT`.

    :class:`StoreAndForward` is at-least-once on the wire; a receiver
    that answers a repeated ``relay_id`` from its memo instead of
    handling the payload again makes the processing at-most-once.
    Re-recording an id (a deferred reply resolving to its final one)
    replaces the entry in place.
    """
    if relay_id not in seen and len(seen) >= RELAY_SEEN_LIMIT:
        # dicts iterate in insertion order: drop the oldest entry — its
        # retry window is long gone
        del seen[next(iter(seen))]
    seen[relay_id] = reply


#: fires once with (reply, attempts, sent_at of the answered attempt)
RelayDelivered = Callable[[Any, int, float], None]
#: fires once with (attempts, expired): the budget window closed unanswered
RelayExhausted = Callable[[int, bool], None]


@dataclass(slots=True)
class _Relay:
    """Mutable state of one relay: its attempts and its single settlement."""

    payload: dict[str, Any]
    #: taken once: every attempt sends the same (unchanging) payload
    size_bytes: int
    on_reply: RelayDelivered
    on_failure: RelayExhausted
    deadline: float | None
    #: the first retry interval, never below the payload's round trip
    retry_s: float
    #: when the budget window closes (clamped by the deadline)
    park_at: float
    attempts: int = 0
    #: replies received, the settling one and any late duplicates
    replies: int = 0
    #: the RPC request id of every attempt sent
    requests: list[str] = field(default_factory=list)
    settled: bool = False
    #: the one pending event: the next retry, or the window's close
    timer: EventHandle | None = None


class StoreAndForward:
    """At-least-once relay to one operation on one server, one timer each.

    Each relay has an attempt budget: retries fire with exponential
    backoff (``base * backoff ** (attempt-1)`` between attempts) inside a
    budget window of the sum of those delays, clamped by the relay's
    deadline when it has one.  The base is ``retry_s``, or the payload's
    worst-case round trip over the link to the server when that is
    longer: ``2·latency + 2·jitter + (size + reply size) / bandwidth``.

    A relay's **one timer** is armed for whichever comes first of the
    next retry and the window's close.  Attempts carry no RPC timer: the
    reply window of every attempt *is* the budget window, so a slow reply
    to an earlier attempt still settles the relay, a reply after the
    settling one counts in :attr:`duplicate_replies`, and the close drops
    every attempt's request id from the endpoint.  A window the deadline
    clamped fails with ``expired`` true: the verdict comes from the clamp
    (``park_at == deadline``), never from comparing float instants.
    Subclasses hook :meth:`_retried`.
    """

    def __init__(
        self,
        rpc: RequestReply,
        server: str,
        operation: str,
        namespace: str,
        retry_s: float = 0.5,
        max_attempts: int = 4,
        backoff: float = 2.0,
    ) -> None:
        if retry_s <= 0:
            raise ConfigurationError("relay retry_s must be > 0")
        self._rpc = rpc
        self._engine = rpc._engine
        #: the node every relay is sent to
        self.server = server
        self._operation = operation
        self._namespace = namespace
        #: numbers this relay's ids: ``<namespace>-000001``, ...
        self._relay_seq = itertools.count(1)
        self._retry_s = retry_s
        self._backoff = backoff
        self.set_attempt_budget(max_attempts)
        self.retries = 0
        self.duplicate_replies = 0

    def set_attempt_budget(self, max_attempts: int) -> None:
        """Change the per-relay attempt budget at runtime.

        Applies to relays sent after the call; in-flight relays keep the
        budget they were sent with.
        """
        if max_attempts < 1:
            raise ConfigurationError("relay needs max_attempts >= 1")
        self._max_attempts = max_attempts
        #: total simulated seconds one relay's budget window stays open
        self._budget_s = sum(
            self._retry_s * (self._backoff ** k) for k in range(max_attempts)
        )

    @property
    def max_attempts(self) -> int:
        """The current per-relay attempt budget."""
        return self._max_attempts

    def stamp(self, payload: dict[str, Any]) -> None:
        """Give *payload* a fresh ``relay_id`` unless it carries one (a
        redriven or forwarded payload keeps its id)."""
        if "relay_id" not in payload:
            payload["relay_id"] = f"{self._namespace}-{next(self._relay_seq):06d}"

    def send(
        self,
        payload: dict[str, Any],
        size_bytes: int,
        on_reply: RelayDelivered,
        on_failure: RelayExhausted,
        deadline: float | None = None,
    ) -> None:
        """Relay *payload*, charged *size_bytes* per attempt on the wire.

        Exactly one of the two callbacks fires.  *deadline* (absolute
        simulated time, later than now) clamps the budget window.
        """
        if "relay_id" not in payload:
            self.stamp(payload)
        # A retry sooner than the link can carry the request and its reply
        # resends a payload that is still on its way: the first interval
        # is at least the worst-case round trip, and backoff and the budget
        # window scale from it.
        link = self._rpc._network.link_between(self._rpc._local, self.server)
        retry_s = max(self._retry_s, 2 * link.latency_s + 2 * link.jitter_s
                      + (size_bytes + REPLY_SIZE_BYTES) / link.bandwidth_bps)
        budget_s = self._budget_s if retry_s == self._retry_s else sum(
            retry_s * (self._backoff ** k) for k in range(self._max_attempts)
        )
        park_at = self._engine.now + budget_s
        if deadline is not None:
            park_at = min(park_at, deadline)
        self._launch(_Relay(
            payload, size_bytes, on_reply, on_failure, deadline, retry_s, park_at
        ))

    def _launch(self, relay: _Relay) -> None:
        """Send one attempt and arm the relay timer for what comes next."""
        relay.attempts += 1
        attempt = relay.attempts
        sent_at = self._engine.now
        relay.requests.append(self._rpc.request(
            self.server,
            self._operation,
            relay.payload,
            on_reply=partial(self._settle, relay, sent_at),
            timeout_s=None,
            size_bytes=relay.size_bytes,
        ))
        if attempt < self._max_attempts:
            retry_at = sent_at + relay.retry_s * (self._backoff ** (attempt - 1))
            if retry_at < relay.park_at:
                relay.timer = self._engine.schedule_at(retry_at, partial(self._retry, relay))
                return
        self._arm_close(relay)

    def _arm_close(self, relay: _Relay) -> None:
        relay.timer = self._engine.schedule_at(relay.park_at, partial(self._close, relay))

    def _retry(self, relay: _Relay) -> None:
        self.retries += 1
        self._retried()
        self._launch(relay)

    def _close(self, relay: _Relay) -> None:
        """The budget window closes: no attempt's reply is awaited any
        longer, and a relay still unsettled fails."""
        relay.timer = None
        for request_id in relay.requests:
            self._rpc.drop(request_id)
        if relay.settled:
            return
        relay.settled = True
        relay.on_failure(relay.attempts, relay.park_at == relay.deadline)

    def _disarm(self, relay: _Relay) -> None:
        if relay.timer is not None:
            relay.timer.cancel()
            relay.timer = None

    def _settle(self, relay: _Relay, sent_at: float, reply: Any) -> None:
        """A reply to the attempt sent at *sent_at* arrived."""
        relay.replies += 1
        if relay.settled:
            self.duplicate_replies += 1
            if relay.replies == relay.attempts:
                self._disarm(relay)  # no reply is left to await
            return
        relay.settled = True
        # No retry is due any more; the window stays open only while an
        # attempt's reply is still out, so a late one counts as a duplicate.
        relay.timer.cancel()
        relay.timer = None
        if relay.replies < relay.attempts:
            self._arm_close(relay)
        relay.on_reply(reply, relay.attempts, sent_at)

    def _retried(self) -> None:
        """Hook: a retry is about to be sent."""
