"""Message Transfer Agents: store-and-forward routing of envelopes.

Each MTA serves one or more routing domains, holds the message store for
its local mailboxes, and relays foreign envelopes to peer MTAs according
to its routing table.  A transfer to a peer MTA is a
:class:`~repro.sim.transport.StoreAndForward` relay, the stack's one
retry loop (store-and-forward must survive transient outages), and the
receiving MTA answers a retried transfer from its reply memo, so a
retry never delivers twice.  Final failures, unknown recipients,
missing routes and hop-limit violations produce non-delivery reports
back to the originator.  Delivery reports are generated when the
envelope asks for one.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.messaging.envelope import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Envelope,
    InterpersonalMessage,
)
from repro.messaging.message_store import MessageStore, StoredMessage
from repro.messaging.names import OrName
from repro.messaging.reports import (
    REASON_EXPIRED,
    REASON_HOP_LIMIT,
    REASON_NO_ROUTE,
    REASON_TRANSFER_FAILURE,
    REASON_UNKNOWN_RECIPIENT,
    DeliveryReport,
    NonDeliveryReport,
)
from repro.messaging.routing import RoutingTable
from repro.obs.context import TraceContext
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.transport import RequestReply, StoreAndForward, remember_reply
from repro.sim.world import World
from repro.util.errors import MessagingError, NoRouteError
from repro.util.ids import IdFactory

DeliveryHook = Callable[[str, StoredMessage], None]

#: RPC port MTAs and their clients use
MHS_PORT = "mhs"

#: per-hop processing delay (seconds) by envelope priority: urgent mail
#: jumps the queue, low-priority mail waits for quiet periods
PRIORITY_DELAYS = {
    PRIORITY_URGENT: 0.0,
    PRIORITY_NORMAL: 0.05,
    PRIORITY_LOW: 1.0,
}

#: a transfer's first retry interval (seconds); later ones back off 2x
TRANSFER_RETRY_S = 2.0
#: attempts per transfer: sent at 0, 2, 6 and 14 s, the last reply
#: awaited until 30 s, after which the envelope is non-delivered
TRANSFER_ATTEMPTS = 4


class MessageTransferAgent:
    """One MTA bound to a simulated node."""

    def __init__(
        self,
        world: World,
        node: str,
        name: str,
        domains: list[tuple[str, str, str]],
    ) -> None:
        self._world = world
        self.node = node
        self.name = name
        self._domains = {tuple(d.lower() for d in domain) for domain in domains}
        self.routing = RoutingTable()
        self.store = MessageStore()
        #: peer MTA name -> the store-and-forward relay transferring to it
        self._peers: dict[str, StoreAndForward] = {}
        self._mailboxes: set[str] = set()
        #: mailbox key -> distribution list members (AMIGO-style group
        #: communication: a message to the list fans out to all members)
        self._dlists: dict[str, list[OrName]] = {}
        self._ids = IdFactory(width=6)
        #: relay_id -> reply of inbound transfers (see remember_reply)
        self._transfers: dict[str, Any] = {}
        self._delivery_hooks: list[DeliveryHook] = []
        self._report_hooks: list[Callable[[dict[str, Any]], None]] = []
        self.relayed = 0
        self.delivered = 0
        self.reports_issued = 0
        self._obs: MetricsRegistry = NULL_METRICS
        self._tracer: Tracer = NULL_TRACER
        self.rpc = RequestReply(world.network, node, port=MHS_PORT)
        self.rpc.serve("submit", self._op_submit)
        self.rpc.serve("transfer", self._op_transfer)
        self.rpc.serve("register", self._op_register)
        self.rpc.serve("list", self._op_list)
        self.rpc.serve("fetch", self._op_fetch)
        self.rpc.serve("delete", self._op_delete)

    # -- configuration ----------------------------------------------------
    def add_peer(self, name: str, node: str) -> None:
        """Teach this MTA where a peer MTA lives."""
        if name == self.name:
            raise MessagingError("an MTA cannot peer with itself")
        self._peers[name] = StoreAndForward(
            self.rpc, node, "transfer", f"transfer:{self.name}>{name}",
            retry_s=TRANSFER_RETRY_S, max_attempts=TRANSFER_ATTEMPTS,
        )

    def register_mailbox(self, user: OrName) -> None:
        """Register a local mailbox (idempotent)."""
        if user.routing_domain not in self._domains:
            raise MessagingError(
                f"{user} is not in MTA {self.name!r}'s domains {sorted(self._domains)}"
            )
        if user.mailbox in self._dlists:
            raise MessagingError(
                f"{user.mailbox!r} names a distribution list, not a mailbox"
            )
        self._mailboxes.add(user.mailbox)

    def create_distribution_list(self, list_name: OrName, members: list[OrName]) -> None:
        """Create a distribution list served by this MTA.

        The list has an O/R name in one of this MTA's domains; messages
        addressed to it are expanded to all members (who may live
        anywhere) and re-routed.  Nested lists are allowed; expansion
        history on the envelope prevents loops.
        """
        if list_name.routing_domain not in self._domains:
            raise MessagingError(
                f"list {list_name} is not in MTA {self.name!r}'s domains"
            )
        if not members:
            raise MessagingError("a distribution list needs at least one member")
        if list_name.mailbox in self._mailboxes:
            raise MessagingError(
                f"mailbox {list_name.mailbox!r} already exists; cannot be a list"
            )
        self._dlists[list_name.mailbox] = list(members)

    def list_members(self, list_name: OrName) -> list[OrName]:
        """Members of a local distribution list."""
        try:
            return list(self._dlists[list_name.mailbox])
        except KeyError:
            raise MessagingError(f"no distribution list {list_name}") from None

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report transfer activity to *metrics* (``None`` detaches).

        Counters ``mta.relayed``/``delivered``/``reports`` read the MTA's
        own tallies; ``mta.non_delivery.<reason>`` counters and the
        ``mta.hops`` histogram of hop counts at local delivery are pushed.
        """
        self._obs = (metrics or NULL_METRICS).read(self, {
            "mta.relayed": lambda: self.relayed,
            "mta.delivered": lambda: self.delivered,
            "mta.reports": lambda: self.reports_issued,
        }, self._obs)

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Trace envelope handling with *tracer* (``None`` detaches).

        Accepted envelopes without a :class:`TraceContext` are stamped
        from the caller's open span, and local delivery opens an
        ``mta.deliver`` span continuing the envelope's context — so a
        message submitted inside a traced operation stays inside that
        trace across every MTA hop.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Call *hook*(mailbox, stored) on every local delivery."""
        self._delivery_hooks.append(hook)

    def add_report_hook(self, hook: "Callable[[dict[str, Any]], None]") -> None:
        """Call *hook*(report_document) whenever this MTA issues a report.

        Gives operators an audit stream even for reports that later prove
        undeliverable themselves (which are dropped, never re-reported).
        """
        self._report_hooks.append(hook)

    def serves_domain(self, domain: tuple[str, str, str]) -> bool:
        """True when this MTA is responsible for the routing domain."""
        return tuple(d.lower() for d in domain) in self._domains

    # -- RPC operation handlers --------------------------------------------
    def _op_submit(self, body: dict[str, Any]) -> dict[str, Any]:
        envelope = Envelope.from_document(body)
        self.accept(envelope)
        return {"accepted": envelope.message_id}

    def _op_transfer(self, body: dict[str, Any]) -> dict[str, Any]:
        relay_id = body["relay_id"]
        if relay_id not in self._transfers:
            remember_reply(self._transfers, relay_id, self._op_submit(body))
        return self._transfers[relay_id]

    def _op_register(self, body: dict[str, Any]) -> bool:
        self.register_mailbox(OrName.from_document(body["user"]))
        return True

    def _op_list(self, body: dict[str, Any]) -> list[dict[str, Any]]:
        return self.store.summary_documents(
            body["mailbox"], unread_only=body.get("unread_only", False)
        )

    def _op_fetch(self, body: dict[str, Any]) -> dict[str, Any]:
        stored = self.store.fetch(body["mailbox"], body["sequence"])
        return {
            "sequence": stored.sequence,
            "delivered_at": stored.delivered_at,
            "envelope": stored.envelope.to_document(),
        }

    def _op_delete(self, body: dict[str, Any]) -> bool:
        self.store.delete(body["mailbox"], body["sequence"])
        return True

    # -- transfer machinery -----------------------------------------------
    def accept(self, envelope: Envelope) -> None:
        """Accept an envelope for processing (from a UA or a peer MTA).

        Deferred envelopes wait for their release time; otherwise the
        envelope pays a per-hop processing delay determined by its
        priority (urgent mail jumps the queue).
        """
        if self._tracer.enabled and envelope.trace_context is None:
            # Stamp the submitter's open span onto the envelope once;
            # every downstream MTA then continues the same trace.
            envelope.trace_context = self._tracer.current_context()
        if envelope.deferred_until is not None and envelope.deferred_until > self._world.now:
            delay = envelope.deferred_until - self._world.now
            # Re-enter accept() at release time so the envelope still pays
            # its priority processing delay — deferral postpones a message,
            # it must not let it skip the per-hop queue.
            self._world.engine.schedule(delay, lambda: self.accept(envelope))
            return
        processing = PRIORITY_DELAYS.get(envelope.priority, PRIORITY_DELAYS[PRIORITY_NORMAL])
        if processing > 0:
            self._world.engine.schedule(processing, lambda: self._process(envelope))
        else:
            self._process(envelope)

    def _process(self, envelope: Envelope) -> None:
        # Deadline propagation: the expiry stamp travels on the envelope,
        # so whichever MTA holds the message when it expires — including
        # after retries and deferrals — non-delivers it rather than
        # carrying it further.
        if envelope.expires_at is not None and self._world.now >= envelope.expires_at:
            self._non_deliver(
                envelope,
                REASON_EXPIRED,
                f"expired at {envelope.expires_at:.3f}, now {self._world.now:.3f}",
            )
            return
        if envelope.visited(self.name) or envelope.hop_count() >= envelope.max_hops:
            self._non_deliver(envelope, REASON_HOP_LIMIT, f"at {self.name}")
            return
        envelope.stamp(self.name, self._world.now)
        for recipient in list(envelope.recipients):
            single = envelope.for_single_recipient(recipient)
            self._route_single(single)

    def _route_single(self, envelope: Envelope) -> None:
        recipient = envelope.recipients[0]
        if self.serves_domain(recipient.routing_domain):
            self._deliver_local(envelope, recipient)
            return
        try:
            hop = self.routing.next_hop(recipient.routing_domain)
        except NoRouteError:
            self._non_deliver(envelope, REASON_NO_ROUTE, str(recipient.routing_domain))
            return
        link = self._peers.get(hop)
        if link is None:
            self._non_deliver(envelope, REASON_NO_ROUTE, f"unknown peer {hop!r}")
            return
        self._transfer(envelope, link)

    def _deliver_local(self, envelope: Envelope, recipient: OrName) -> None:
        if recipient.mailbox in self._dlists:
            self._expand_list(envelope, recipient)
            return
        if recipient.mailbox not in self._mailboxes:
            self._non_deliver(envelope, REASON_UNKNOWN_RECIPIENT, recipient.mailbox)
            return
        with self._tracer.span_from_context(
            "mta.deliver",
            envelope.trace_context,
            mta=self.name,
            mailbox=recipient.mailbox,
        ) as span:
            span.tag(hops=envelope.hop_count())
            stored = self.store.deliver(recipient.mailbox, envelope, self._world.now)
        self.delivered += 1
        if self._obs.enabled:
            self._obs.observe("mta.hops", envelope.hop_count())
        for hook in self._delivery_hooks:
            hook(recipient.mailbox, stored)
        if envelope.delivery_report_requested:
            report = DeliveryReport(
                subject_message_id=envelope.message_id,
                recipient=str(recipient),
                delivered_at=self._world.now,
            )
            self._send_report(envelope, report.to_document())

    def _expand_list(self, envelope: Envelope, list_name: OrName) -> None:
        """Fan a list-addressed message out to the members."""
        key = f"{self.name}:{list_name.mailbox}"
        if key in envelope.expanded_lists:
            return  # already expanded once for this message: loop control
        for member in self._dlists[list_name.mailbox]:
            expanded = envelope.for_single_recipient(member)
            expanded.expanded_lists.append(key)
            self._route_single(expanded)

    def _transfer(self, envelope: Envelope, link: StoreAndForward) -> None:
        self.relayed += 1
        span = None
        if self._tracer.enabled:
            # Detached span for the async hop; the envelope is re-stamped
            # so the receiving MTA parents its work under this transfer.
            span = self._tracer.start_span(
                "mta.transfer",
                context=envelope.trace_context,
                mta=self.name,
                peer=link.server,
            )
            envelope.trace_context = TraceContext(
                span.trace_id, span.span_id, span.sampled
            )

        def settle(outcome: str, attempts: int) -> None:
            if span is not None:
                span.tag(outcome=outcome, attempts=attempts)
                self._tracer.finish(span)
            if outcome != "transferred":
                self._non_deliver(
                    envelope,
                    REASON_TRANSFER_FAILURE,
                    f"{attempts} attempts to {link.server}",
                )

        link.send(
            envelope.to_document(),
            envelope.size_bytes(),
            lambda reply, attempts, sent_at: settle("transferred", attempts),
            lambda attempts, expired: settle("timeout", attempts),
        )

    # -- reports ---------------------------------------------------------------
    def postmaster(self) -> OrName:
        """The O/R name reports originate from at this MTA."""
        country, admd, prmd = sorted(self._domains)[0]
        return OrName(
            country=country or "xx",
            admd=admd,
            prmd=prmd or "mhs",
            surname=f"postmaster-{self.name}",
        )

    def _non_deliver(self, envelope: Envelope, reason: str, diagnostic: str) -> None:
        # Never report about a report: that way lies mail loops.
        if envelope.content.extensions.get("report"):
            return
        if self._obs.enabled:
            self._obs.inc(f"mta.non_delivery.{reason}")
        report = NonDeliveryReport(
            subject_message_id=envelope.message_id,
            recipient=str(envelope.recipients[0]),
            reason=reason,
            diagnostic=diagnostic,
        )
        self._send_report(envelope, report.to_document())

    def _send_report(self, subject: Envelope, report_document: dict[str, Any]) -> None:
        self.reports_issued += 1
        for hook in self._report_hooks:
            hook(dict(report_document))
        content = InterpersonalMessage(
            ipm_id=self._ids.next("report"),
            subject=f"Report on {subject.message_id}",
            extensions=report_document,
        )
        report_envelope = Envelope(
            message_id=self._ids.next(f"{self.name}-rpt"),
            originator=self.postmaster(),
            recipients=[subject.originator],
            content=content,
        )
        self.accept(report_envelope)
