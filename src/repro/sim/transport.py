"""Transport protocols layered over the raw datagram network.

Three facilities, each used by a different part of the stack:

* :class:`ReliableChannel` — acknowledged, retransmitting, FIFO delivery
  between two fixed endpoints.  Used by the X.400 MTAs, which must not lose
  inter-MTA transfers even on lossy links.
* :class:`RequestReply` — correlated request/response exchange with
  optional timeouts.  Used by the ODP binding machinery (client stubs),
  the directory DUA/DSA protocol and the federation's gateways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.engine import Engine, EventHandle
from repro.sim.network import Network, Packet
from repro.util.errors import ConfigurationError
from repro.util.ids import IdFactory


@dataclass(slots=True)
class _OutstandingSend:
    seq: int
    payload: Any
    size_bytes: int
    attempts: int = 0
    timer: EventHandle | None = None


class ReliableChannel:
    """Reliable FIFO delivery from one node to one peer node.

    A sliding-window-of-one protocol: each payload gets a sequence number;
    the receiver acks; unacked payloads are retransmitted after
    *retransmit_s* up to *max_attempts* times.  Duplicate suppression and
    reordering are handled with the sequence number.  On final failure the
    ``on_failure`` callback fires — errors never pass silently.
    """

    def __init__(
        self,
        network: Network,
        local: str,
        peer: str,
        port: str,
        on_receive: Callable[[Any], None],
        retransmit_s: float = 0.5,
        max_attempts: int = 8,
        on_failure: Callable[[Any], None] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self._network = network
        self._engine: Engine = network.engine
        self._local = local
        self._peer = peer
        self._port = port
        self._on_receive = on_receive
        self._on_failure = on_failure
        self._retransmit_s = retransmit_s
        self._max_attempts = max_attempts
        self._next_seq = 1
        self._expected_seq = 1
        self._outstanding: dict[int, _OutstandingSend] = {}
        self._reorder_buffer: dict[int, Any] = {}
        self.delivered = 0
        self.retransmissions = 0
        self.failures = 0
        # Sender side lives on *local* (acks come back here); receiver side
        # lives on *peer* (data arrives there).
        network.node(local).bind(self._ack_port(), self._handle_ack)
        network.node(peer).bind(self._data_port(), self._handle_data)

    def _data_port(self) -> str:
        return f"{self._port}.data"

    def _ack_port(self) -> str:
        return f"{self._port}.ack"

    def send(self, payload: Any, size_bytes: int = 128) -> int:
        """Queue *payload* for reliable delivery; return its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        entry = _OutstandingSend(seq=seq, payload=payload, size_bytes=size_bytes)
        self._outstanding[seq] = entry
        self._transmit(entry)
        return seq

    def _transmit(self, entry: _OutstandingSend) -> None:
        entry.attempts += 1
        if entry.attempts > 1:
            self.retransmissions += 1
        self._network.send(
            self._local,
            self._peer,
            f"{self._port}.data",
            {"seq": entry.seq, "payload": entry.payload},
            size_bytes=entry.size_bytes,
        )
        entry.timer = self._engine.schedule(
            self._retransmit_s, lambda: self._on_timeout(entry.seq)
        )

    def _on_timeout(self, seq: int) -> None:
        entry = self._outstanding.get(seq)
        if entry is None:
            return
        if entry.attempts >= self._max_attempts:
            del self._outstanding[seq]
            self.failures += 1
            if self._on_failure is not None:
                self._on_failure(entry.payload)
            return
        self._transmit(entry)

    def _handle_ack(self, packet: Packet) -> None:
        seq = packet.payload["seq"]
        entry = self._outstanding.pop(seq, None)
        if entry is not None and entry.timer is not None:
            entry.timer.cancel()

    def _handle_data(self, packet: Packet) -> None:
        seq = packet.payload["seq"]
        payload = packet.payload["payload"]
        # Always (re-)ack so lost acks get repaired.  The ack originates at
        # the receiver (peer) and travels back to the sender (local).
        self._network.send(self._peer, packet.source, f"{self._port}.ack", {"seq": seq}, size_bytes=16)
        if seq < self._expected_seq:
            return  # duplicate
        self._reorder_buffer[seq] = payload
        while self._expected_seq in self._reorder_buffer:
            ready = self._reorder_buffer.pop(self._expected_seq)
            self._expected_seq += 1
            self.delivered += 1
            self._on_receive(ready)


def connect_pair(
    network: Network,
    a: str,
    b: str,
    port: str,
    on_receive_a: Callable[[Any], None],
    on_receive_b: Callable[[Any], None],
    **kwargs: Any,
) -> tuple[ReliableChannel, ReliableChannel]:
    """Create a bidirectional reliable connection between nodes *a* and *b*.

    Returns the (a->b, b->a) channel pair.  Distinct sub-ports keep the two
    directions from colliding on the same node.
    """
    forward = ReliableChannel(network, a, b, f"{port}.fwd", on_receive_a, **kwargs)
    backward = ReliableChannel(network, b, a, f"{port}.bwd", on_receive_b, **kwargs)
    return forward, backward


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
    sends the reply packet when :meth:`resolve` (or :meth:`fail`) fires.
    Only the first completion wins — later calls are ignored.
    """

    def __init__(self) -> None:
        self._send: Callable[[str, Any], None] | None = None
        self._result: tuple[str, Any] | None = None
        self._done = False

    def resolve(self, body: Any) -> None:
        """Complete the request successfully with *body*."""
        self._finish("body", body)

    def fail(self, error: str) -> None:
        """Complete the request with an error (caller sees ``{"error": ...}``)."""
        self._finish("error", error)

    def _finish(self, kind: str, value: Any) -> None:
        if self._done:
            return
        self._done = True
        if self._send is not None:
            self._send(kind, value)
        else:
            self._result = (kind, value)

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
        self._port = port
        self._ids = IdFactory(width=6)
        self._pending: dict[str, _PendingRequest] = {}
        self._operations: dict[str, Callable[[Any], Any]] = {}
        self.requests_sent = 0
        self.replies_received = 0
        self.timeouts = 0
        node = network.node(local)
        node.bind(f"{port}.req", self._handle_request)
        node.bind(f"{port}.rep", self._handle_reply)

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
        request_id = self._ids.next("req")
        pending = _PendingRequest(request_id, on_reply, on_timeout)
        self._pending[request_id] = pending
        self.requests_sent += 1
        target_port = server_port if server_port is not None else self._port
        self._network.send(
            self._local,
            server,
            f"{target_port}.req",
            {
                "id": request_id,
                "op": operation,
                "body": body,
                "reply_to": self._local,
                "reply_port": f"{self._port}.rep",
            },
            size_bytes=size_bytes,
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
        reply_port = message.get("reply_port", f"{self._port}.rep")

        def send_reply(kind: str, value: Any) -> None:
            self._network.send(
                self._local,
                message["reply_to"],
                reply_port,
                {"id": message["id"], kind: value},
                size_bytes=128,
            )

        handler = self._operations.get(message["op"])
        if handler is None:
            send_reply("error", f"unknown operation {message['op']!r}")
            return
        try:
            result = handler(message["body"])
        except Exception as exc:  # deliberate: errors travel back to caller
            send_reply("error", f"{type(exc).__name__}: {exc}")
            return
        if isinstance(result, DeferredReply):
            result._wire(send_reply)
            return
        send_reply("body", result)

    def _handle_reply(self, packet: Packet) -> None:
        message = packet.payload
        pending = self._pending.pop(message["id"], None)
        if pending is None:
            return  # late reply after timeout
        if pending.timer is not None:
            pending.timer.cancel()
        self.replies_received += 1
        pending.on_reply(message.get("body") if "error" not in message else {"error": message["error"]})
