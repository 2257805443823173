"""Bindings and channels between computational interfaces.

RM-ODP models an operational binding as a *channel* assembled from three
kinds of engineering objects:

* a **stub** that marshals invocations into wire documents,
* a **binder** that maintains the binding's integrity (validates the
  interface reference, re-resolves it when the target has moved),
* a **protocol object** that actually moves the documents (here: the
  request/reply transport of :mod:`repro.sim.transport`).

The explicit layering is not gratuitous: experiment E3 measures the cost of
this structure, and the transparency interceptors of
:mod:`repro.odp.transparencies` hook into the binder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.odp.node_mgmt import ODP_PORT, Capsule
from repro.odp.objects import InterfaceRef
from repro.odp.qos import QoSMonitor
from repro.sim.network import Network
from repro.sim.transport import RequestReply
from repro.sim.world import World
from repro.util.errors import BindingError
from repro.util.serialization import document_size


@dataclass
class Invocation:
    """One in-flight invocation travelling down the channel."""

    ref: InterfaceRef
    operation: str
    arguments: dict[str, Any]
    #: filled by interceptors/binder as the invocation progresses
    attempts: int = 0
    annotations: dict[str, Any] = field(default_factory=dict)


class Interceptor(Protocol):
    """Hook point the binder offers to transparency functions."""

    def before_invoke(self, invocation: Invocation) -> Invocation:
        """Inspect/rewrite the invocation before transmission."""
        ...  # pragma: no cover - protocol

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        """Handle a failed invocation; return True when handled (retrying)."""
        ...  # pragma: no cover - protocol


class Stub:
    """Client-side stub: marshals an invocation into a wire document."""

    def marshal(self, invocation: Invocation) -> dict[str, Any]:
        """Build the wire document for the capsule's ``invoke`` operation."""
        return {
            "object_id": invocation.ref.object_id,
            "interface": invocation.ref.interface,
            "operation": invocation.operation,
            "arguments": invocation.arguments,
        }


class Binder:
    """Maintains binding integrity and runs the interceptor chain."""

    def __init__(self, interceptors: list[Interceptor] | None = None) -> None:
        self._interceptors = list(interceptors or [])

    def prepare(self, invocation: Invocation) -> Invocation:
        """Run all before-invoke hooks in order."""
        for interceptor in self._interceptors:
            invocation = interceptor.before_invoke(invocation)
        return invocation

    def handle_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        """Offer the failure to each interceptor; True when one retries."""
        for interceptor in self._interceptors:
            if interceptor.on_failure(invocation, retry):
                return True
        return False


class Channel:
    """A client-side channel bound to one remote interface.

    Invocations flow stub -> binder -> protocol object.  Completion is
    signalled through callbacks because everything runs on simulated time;
    :meth:`call` offers a synchronous convenience for tests and examples by
    running the world until the reply arrives.
    """

    def __init__(
        self,
        network: Network,
        client_node: str,
        ref: InterfaceRef,
        binder: Binder | None = None,
        timeout_s: float = 5.0,
        qos_monitor: "QoSMonitor | None" = None,
    ) -> None:
        self._network = network
        self.client_node = client_node
        self.ref = ref
        self.stub = Stub()
        self.binder = binder if binder is not None else Binder()
        self._timeout_s = timeout_s
        self._rpc = _client_rpc(network, client_node)
        #: optional QoS observation of every invocation round trip
        self.qos_monitor = qos_monitor
        self.completed = 0
        self.failed = 0

    def invoke(
        self,
        operation: str,
        arguments: dict[str, Any] | None = None,
        on_reply: Callable[[Any], None] | None = None,
        on_error: Callable[[str], None] | None = None,
    ) -> None:
        """Invoke *operation* asynchronously.

        *on_reply* receives the result; *on_error* receives an error string
        after the binder's interceptors decline to handle the failure.
        """
        invocation = Invocation(ref=self.ref, operation=operation, arguments=dict(arguments or {}))
        self._transmit(invocation, on_reply, on_error)

    def _transmit(
        self,
        invocation: Invocation,
        on_reply: Callable[[Any], None] | None,
        on_error: Callable[[str], None] | None,
    ) -> None:
        invocation = self.binder.prepare(invocation)
        invocation.attempts += 1
        document = self.stub.marshal(invocation)
        sent_at = self._network.engine.now

        def deliver(reply: Any) -> None:
            if isinstance(reply, dict) and "error" in reply:
                self._fail(invocation, reply["error"], on_reply, on_error)
                return
            self.completed += 1
            if self.qos_monitor is not None:
                self.qos_monitor.observe_success(self._network.engine.now - sent_at)
            if on_reply is not None:
                on_reply(reply)

        def timed_out() -> None:
            self._fail(invocation, "timeout", on_reply, on_error)

        self._rpc.request(
            invocation.ref.node,
            "invoke",
            document,
            deliver,
            timeout_s=self._timeout_s,
            on_timeout=timed_out,
            size_bytes=document_size(document),
        )

    def _fail(
        self,
        invocation: Invocation,
        error: str,
        on_reply: Callable[[Any], None] | None,
        on_error: Callable[[str], None] | None,
    ) -> None:
        invocation.annotations["last_error"] = error
        retried = self.binder.handle_failure(
            invocation, lambda inv: self._transmit(inv, on_reply, on_error)
        )
        if retried:
            return
        self.failed += 1
        if self.qos_monitor is not None:
            self.qos_monitor.observe_failure()
        if on_error is not None:
            on_error(error)
        else:
            raise BindingError(f"invocation of {invocation.operation!r} on {invocation.ref.address} failed: {error}")

    def call(self, world: World, operation: str, arguments: dict[str, Any] | None = None) -> Any:
        """Synchronous convenience: invoke and run the world to completion.

        Returns the reply or raises :class:`BindingError` with the error.
        """
        outcome: dict[str, Any] = {}
        self.invoke(
            operation,
            arguments,
            on_reply=lambda r: outcome.__setitem__("reply", r),
            on_error=lambda e: outcome.__setitem__("error", e),
        )
        # Step (rather than drain) so periodic tasks elsewhere in the world
        # cannot keep the engine running forever.
        while "reply" not in outcome and "error" not in outcome:
            if not world.engine.step():
                break
        if "error" in outcome:
            raise BindingError(outcome["error"])
        if "reply" not in outcome:
            raise BindingError("invocation produced neither reply nor error")
        return outcome["reply"]


def _rpc_map(network: Network) -> dict[str, RequestReply]:
    """Per-network map of node -> shared RPC endpoint.

    Stored on the network instance so its lifetime matches the network
    (a module-level cache would leak endpoints across simulations).
    """
    existing = getattr(network, "_odp_client_rpcs", None)
    if existing is None:
        existing = {}
        network._odp_client_rpcs = existing  # type: ignore[attr-defined]
    return existing


def _client_rpc(network: Network, node: str) -> RequestReply:
    per_network = _rpc_map(network)
    rpc = per_network.get(node)
    if rpc is None:
        bound = network.node(node).bound_ports()
        if f"{ODP_PORT}.req" in bound:
            # A capsule already lives here; reuse its RPC endpoint.
            raise BindingError(
                f"node {node!r} already binds the ODP port; pass the capsule's rpc "
                "or use BindingFactory which handles sharing"
            )
        rpc = RequestReply(network, node, port=ODP_PORT)
        per_network[node] = rpc
    return rpc


class BindingFactory:
    """Creates channels, sharing one RPC endpoint per client node.

    When the client node also hosts a capsule, the capsule's endpoint is
    reused (a node cannot bind the ODP port twice).
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._capsules: dict[str, Capsule] = {}

    def register_capsule(self, capsule: Capsule) -> None:
        """Make a capsule's RPC endpoint available for client channels."""
        self._capsules[capsule.node] = capsule
        _rpc_map(self._network)[capsule.node] = capsule.rpc

    def capsule(self, node: str) -> Capsule:
        """The capsule registered for *node*."""
        try:
            return self._capsules[node]
        except KeyError:
            raise BindingError(f"no capsule registered for node {node!r}") from None

    def bind(
        self,
        client_node: str,
        ref: InterfaceRef,
        interceptors: list[Interceptor] | None = None,
        timeout_s: float = 5.0,
        qos_monitor: QoSMonitor | None = None,
    ) -> Channel:
        """Create a channel from *client_node* to the referenced interface."""
        binder = Binder(interceptors)
        return Channel(
            self._network, client_node, ref,
            binder=binder, timeout_s=timeout_s, qos_monitor=qos_monitor,
        )
