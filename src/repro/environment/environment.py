"""The CSCW environment facade — the paper's central artifact (Figure 3).

*"A central aim of such environment is to provide interoperability
between a variety of applications ensuring that CSCW applications can
work in harmony rather than in isolation of each other."* (section 3)

One :class:`CSCWEnvironment` aggregates the common services:

* the **organisational knowledge base** (people, orgs, policies, rules),
* the **activity services** (registry, dependencies, scheduler,
  negotiation, resource coordination),
* the **information services** (information base, interchange),
* the **communication services** (communicators, log),
* the **expertise registry**,
* the **ODP trader** (with the org KB's trading policy installed —
  section 6.1) and an **event bus**,
* the **tailoring service** and the **view registry**.

Applications integrate once (:meth:`register_application`) and then
exchange documents through one pipeline, which applies the four CSCW
transparencies per the caller's :class:`TransparencyProfile`.
:meth:`exchange_many` splits a batch into runs of consecutive same-route
requests and the batch's metrics are flushed once; :meth:`exchange` is
that pipeline run on a batch of one.

The exchange decision — the one list of its stages.  The first stage
that refuses an exchange decides its ``reason_code``:

1. deadline — :data:`REASON_DEADLINE_EXCEEDED`
2. activity membership — :data:`REASON_MEMBERSHIP` (an unknown activity too)
3. organisation transparency — :data:`REASON_ORGANISATION_OPAQUE`
4. inter-organisation policy — :data:`REASON_POLICY`
5. view transparency — :data:`REASON_VIEW_OPAQUE`
6. translation — :data:`REASON_TRANSLATION`, or :data:`REASON_FIDELITY`
   below the request's ``min_fidelity``
7. receiver endpoint — :data:`REASON_UNKNOWN_RECEIVER`
8. presence and time transparency — :data:`REASON_TIME_OPAQUE`
9. queue-depth shedding — :data:`REASON_OVERLOAD`
10. deliver or queue — :data:`REASON_DELIVERED`, or
    :data:`REASON_APPLICATION_ERROR` when the application raises

Stages 1–5 are route-constant: a run decides the deadline once and
admits its route once (``_admit``, memoised in a
:class:`~repro.environment.resolution.ResolutionCache` and re-run when a
delivery callback mutates the knowledge base); stages 6–10 run per
document.  A participant the knowledge base does not know resolves to a
same-organisation route, so stages 3 and 4 never refuse them.  A
federation's origin domain decides stages 1–4 before relaying (a
receiver with no home domain fails stage 7 there, after stage 1).  The
target's pipeline then runs all ten stages again: stage 1 on the
deadline the origin clamped, and its admission (stages 2–5) against the
same knowledge base and activity registry the origin read; stages 5–10
are the target's alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.activity.model import Activity
from repro.communication.model import (
    CommunicationContext,
    Communicator,
    Exchange,
)
from repro.environment.registry import AppDescriptor, DeliveryCallback
from repro.environment.transparency import CSCW_DIMENSIONS, TransparencyProfile
from repro.obs.events import KIND_DEADLINE, KIND_SHED
from repro.obs.instrument import BYTES_BUCKETS
from repro.org.policy import INTERACTION_MESSAGE
from repro.util.errors import (
    ConfigurationError,
    FidelityError,
    InteropError,
    UnknownObjectError,
)
from repro.util.serialization import document_size

if TYPE_CHECKING:
    from repro.environment.builder import EnvironmentBuilder
    from repro.information.interchange import TranslationResult
    from repro.obs.metrics import MetricsRegistry

#: structured reason codes an ExchangeOutcome can carry
REASON_DELIVERED = "delivered"
REASON_MEMBERSHIP = "membership"
REASON_ORGANISATION_OPAQUE = "organisation-opaque"
REASON_POLICY = "policy"
REASON_VIEW_OPAQUE = "view-opaque"
REASON_TRANSLATION = "translation"
REASON_FIDELITY = "fidelity"
REASON_TIME_OPAQUE = "time-opaque"
REASON_UNKNOWN_RECEIVER = "unknown-receiver"
REASON_DEADLINE_EXCEEDED = "deadline-exceeded"
REASON_OVERLOAD = "overload"
REASON_APPLICATION_ERROR = "application-error"

#: shared default profile — exchange() is hot, avoid rebuilding it per call
_ALL_ON = TransparencyProfile.all_on()


def deadline_reason(expires_at: float, now: float) -> str:
    """The reason text of a :data:`REASON_DEADLINE_EXCEEDED` outcome."""
    return f"exchange deadline {expires_at:.3f} passed at {now:.3f}"


def unknown_receiver_reason(receiver: str) -> str:
    """The reason text of a :data:`REASON_UNKNOWN_RECEIVER` outcome."""
    return f"receiver {receiver!r} has no registered communicator"


def _with_time(handled: tuple[str, ...]) -> tuple[str, ...]:
    """*handled* for an asynchronous delivery: the time dimension slots in
    before the activity dimension, in pipeline order."""
    if handled[-1:] == ("activity",):
        return handled[:-1] + ("time", "activity")
    return handled + ("time",)


class _Refusal(NamedTuple):
    """Why an exchange was refused: a ``REASON_*`` code and text."""

    code: str
    reason: str


#: the route-constant state of an admitted run: its communication
#: context, the (sender, receiver) formats, the dimensions a synchronous
#: delivery handles (in pipeline order), the receiver's endpoint (None
#: without a communicator) and the receiving app's delivery callback; a
#: plain tuple, as a run of one pays for its construction on every exchange
_Admission = tuple[
    CommunicationContext, str, str, tuple[str, ...], "Communicator | None", DeliveryCallback
]


class ExchangeOutcome(NamedTuple):
    """What happened to one cross-application exchange.

    ``reason`` (human text) and ``reason_code`` (one of the ``REASON_*``
    constants) are populated uniformly for delivered and failed
    exchanges; ``trace_id`` carries the trace the exchange ran under
    when the environment has a tracer attached ('' otherwise).  An
    immutable named tuple, as every exchange builds one:
    ``_replace``/``_asdict``/``_fields`` are its record API.
    """

    delivered: bool
    mode: str  # "synchronous" | "asynchronous" | "failed"
    reason: str = ""
    translated: bool = False
    fidelity: float = 1.0
    #: dimensions the environment handled on the caller's behalf
    handled: tuple[str, ...] = ()
    #: structured outcome classification (REASON_* constant)
    reason_code: str = ""
    #: trace id of the exchange span ('' when tracing is off)
    trace_id: str = ""
    #: canonical JSON size of the delivered payload (0 on failure)
    size_bytes: int = 0


@dataclass(frozen=True, slots=True)
class ExchangeRequest:
    """The single currency of the exchange call surface.

    Every exchange entry point — :meth:`CSCWEnvironment.exchange`,
    :meth:`CSCWEnvironment.exchange_many`, the remote
    :class:`~repro.environment.server.EnvironmentClient` and
    :meth:`~repro.federation.federation.Federation.federated_exchange` —
    takes one of these and nothing else.  The keyword form is the
    dataclass's own constructor:
    ``ExchangeRequest(sender, receiver, sender_app, receiver_app, document,
    deadline=t)``.

    Beyond the routing fields, a request carries the annotations the
    adaptive control plane acts on: ``priority`` (positive priorities
    bypass queue-depth load shedding), ``shed_class`` (a free-form label
    recorded with shed events so operators can see *what* was dropped)
    and the absolute simulated-time ``deadline``.
    """

    sender: str
    receiver: str
    sender_app: str
    receiver_app: str
    document: dict[str, Any]
    activity_id: str = ""
    profile: TransparencyProfile | None = None
    interaction: str = INTERACTION_MESSAGE
    #: absolute simulated-time delivery deadline (None = no deadline)
    deadline: float | None = None
    #: requests with priority > 0 are exempt from load shedding
    priority: int = 0
    #: free-form shed classification, recorded with shed events
    shed_class: str = ""
    #: minimum acceptable translation fidelity in [0, 1]; a lossier plan
    #: is rejected with ``REASON_FIDELITY`` instead of delivered (0.0,
    #: the default, accepts any plan — the pre-mediation behaviour)
    min_fidelity: float = 0.0

    def same_route(self, other: "ExchangeRequest") -> bool:
        """True when two requests differ at most in their document.

        Consecutive same-route requests form one run of the exchange
        pipeline and share one gateway envelope on a federated relay.
        """
        return (
            self.sender == other.sender
            and self.receiver == other.receiver
            and self.sender_app == other.sender_app
            and self.receiver_app == other.receiver_app
            and self.activity_id == other.activity_id
            and self.interaction == other.interaction
            and self.profile == other.profile
            and self.deadline == other.deadline
            and self.priority == other.priority
            and self.shed_class == other.shed_class
            and self.min_fidelity == other.min_fidelity
        )

    def to_document(self) -> dict[str, Any]:
        """The wire form of the request (profile flattened to a dict):
        what the environment server channel sends, and a federation
        relay's byte charge and dead-letter record (its requests cross in
        process).  :meth:`from_document` is the inverse.
        """
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "sender_app": self.sender_app,
            "receiver_app": self.receiver_app,
            "document": self.document,
            "activity_id": self.activity_id,
            "profile": None if self.profile is None else {
                dim: getattr(self.profile, dim) for dim in CSCW_DIMENSIONS
            },
            "interaction": self.interaction,
            "deadline": self.deadline,
            "priority": self.priority,
            "shed_class": self.shed_class,
            "min_fidelity": self.min_fidelity,
        }

    @classmethod
    def from_document(cls, document: dict[str, Any]) -> "ExchangeRequest":
        """Rebuild a request from the server channel's wire form (tolerant
        of old senders that omit the newer annotation fields)."""
        profile_fields = document.get("profile")
        return cls(
            sender=document["sender"],
            receiver=document["receiver"],
            sender_app=document["sender_app"],
            receiver_app=document["receiver_app"],
            document=document["document"],
            activity_id=document.get("activity_id", ""),
            profile=None if profile_fields is None else TransparencyProfile(
                **{dim: bool(profile_fields.get(dim, True)) for dim in CSCW_DIMENSIONS}
            ),
            interaction=document.get("interaction", INTERACTION_MESSAGE),
            deadline=document.get("deadline"),
            priority=document.get("priority", 0),
            shed_class=document.get("shed_class", ""),
            min_fidelity=document.get("min_fidelity", 0.0),
        )


class CSCWEnvironment:
    """The shared environment mediating all open CSCW applications.

    :meth:`builder` is the only way to construct one: it wires the
    services and injects observability (``with_metrics``/``with_tracer``)
    and extra trading policy at construction time.
    """

    @classmethod
    def builder(cls) -> "EnvironmentBuilder":
        """A fluent :class:`~repro.environment.builder.EnvironmentBuilder`
        producing instances of this class."""
        from repro.environment.builder import EnvironmentBuilder

        return EnvironmentBuilder(cls)

    def _bind_labelled_metrics(self, metrics: MetricsRegistry) -> None:
        """Report to *metrics*, resolving the exchange metrics once.

        ``env.exchange.attempted`` reads :attr:`exchanges_attempted`.
        Each outcome is counted once, in the labelled
        ``env.exchange.outcomes{domain,outcome}`` and
        ``env.exchange.reasons{domain,reason}`` families; the ``domain``
        label lets federated runs sharing one registry tell their
        environments apart.  Binding against
        :data:`~repro.obs.metrics.NULL_METRICS` yields its shared
        instruments, which every write skips behind ``metrics.enabled``.
        Per-reason and per-dimension counters are bound on first use (a
        series appears once it has something to count) and then kept.
        """
        obs = self.metrics = metrics.read(
            self, {"env.exchange.attempted": lambda: self.exchanges_attempted}, self.metrics
        )
        outcomes = obs.counter("env.exchange.outcomes", labels=("domain", "outcome"))
        self._m_delivered = outcomes.labels(domain=self.name, outcome="delivered")
        self._m_failed = outcomes.labels(domain=self.name, outcome="failed")
        self._m_reasons = obs.counter("env.exchange.reasons", labels=("domain", "reason"))
        self._m_reason_delivered = self._m_reasons.labels(
            domain=self.name, reason=REASON_DELIVERED
        )
        self._m_document_bytes = obs.histogram(
            "env.exchange.document_bytes", buckets=BYTES_BUCKETS
        )
        #: failure reason code -> labelled ``reasons`` child
        self._m_failure_reasons: dict[str, Any] = {}
        #: handled dimensions -> their flat transparency counters, in order
        self._m_handled: dict[tuple[str, ...], tuple[Any, ...]] = {}

    # -- people ----------------------------------------------------------------
    def register_person(self, communicator: Communicator) -> None:
        """Register a person's communication endpoint with the environment."""
        self.communicators.register(communicator)

    def person_leaves(self, person_id: str) -> None:
        """Mark a person absent; asynchronous exchanges to them queue."""
        self.communicators.set_presence(person_id, False)

    def person_arrives(self, person_id: str) -> int:
        """Mark a person present and flush their queued deliveries.

        Returns the number of deliveries flushed — the store-and-forward
        half of time transparency: work done while you were away is
        waiting when you return.  Deliveries whose deadline passed while
        the person was absent are dropped instead of flushed (counted as
        ``env.shed.expired``): a deadline-carrying exchange promised its
        sender delivery-by, not delivery-eventually.  A delivery whose
        application callback raises is not counted as flushed (it counts
        as ``env.flush.application_error``); the rest still flush.
        """
        self.communicators.set_presence(person_id, True)
        pending = self._pending_deliveries.pop(person_id, [])
        now = self.world.now
        flushed = 0
        expired = 0
        for deliver, document, info, expires_at in pending:
            if expires_at is not None and now >= expires_at:
                expired += 1
                continue
            try:
                deliver(person_id, document, info)
            except Exception:  # one raising callback must not drop the rest
                if self.metrics.enabled:
                    self.metrics.inc("env.flush.application_error")
                continue
            flushed += 1
        if expired:
            self._count_drops(
                "expired", KIND_DEADLINE, now, "", receiver=person_id, dropped=expired, at="flush"
            )
        return flushed

    def pending_for(self, person_id: str) -> int:
        """Number of deliveries queued for an absent person."""
        return len(self._pending_deliveries.get(person_id, []))

    def deregister_person(self, person_id: str) -> int:
        """Remove a person's endpoint from this environment.

        Queued store-and-forward deliveries for them are discarded (a
        federation moving someone to another domain re-registers them
        there; anything still parked here would never flush).  Returns
        the number of discarded deliveries.
        """
        self.communicators.remove(person_id)
        return len(self._pending_deliveries.pop(person_id, []))

    # -- applications ------------------------------------------------------------
    def register_application(
        self,
        descriptor: AppDescriptor,
        on_deliver: DeliveryCallback,
        exporter_org: str = "",
    ) -> None:
        """One-step integration of an application (cost O(1) per app)."""
        self.applications.register(descriptor, on_deliver, exporter_org=exporter_org)
        self.bus.publish(
            f"environment/applications/{descriptor.name}",
            {"event": "registered", "quadrants": descriptor.quadrants},
            source=self.name,
            time=self.world.now,
        )

    # -- activities --------------------------------------------------------------
    def create_activity(
        self,
        activity_id: str,
        name: str,
        members: dict[str, str] | None = None,
        **kwargs: Any,
    ) -> Activity:
        """Create and register an activity, joining the given members."""
        activity = self.activities.create(Activity(activity_id, name, **kwargs))
        for person_id, role in (members or {}).items():
            activity.join(person_id, role)
        return activity

    # -- the exchange pipeline -----------------------------------------------------
    def exchange(self, request: ExchangeRequest) -> ExchangeOutcome:
        """Deliver one :class:`ExchangeRequest`::

            env.exchange(ExchangeRequest(sender, receiver, ..., document))

        A single exchange is a batch of one: it runs the pipeline of
        :meth:`exchange_many`, so its outcome and counters are exactly
        those of ``exchange_many([request])``.  Its stages, in order,
        are the module's stage list.

        The environment applies each enabled transparency; a disabled
        transparency whose dimension the exchange actually crosses makes
        the exchange fail — quantifying exactly what each transparency
        buys (experiment E4).

        ``request.deadline`` is an absolute simulated time: an exchange
        arriving past it fails with :data:`REASON_DEADLINE_EXCEEDED`, and
        a store-and-forward delivery still queued at the deadline is
        dropped instead of flushed (the builder's ``with_default_deadline``
        supplies a relative default).  When a shed limit is set
        (``with_shed_limit`` or the runtime :meth:`set_shed_limit`),
        asynchronous deliveries beyond that per-receiver queue depth are
        shed with :data:`REASON_OVERLOAD` — unless the request carries a
        positive ``priority``, which bypasses shedding.  A synchronous
        delivery whose application callback raises fails with
        :data:`REASON_APPLICATION_ERROR` instead of raising.

        When a tracer is attached, the whole exchange runs inside an
        ``env.exchange`` span whose trace id the returned outcome
        carries (a disabled tracer is not called at all); when a metrics
        registry is attached, outcomes are counted by reason code and
        transparency dimension.
        """
        if not self.tracer.enabled:
            return self._run((request,), "")[0]
        with self.tracer.span("env.exchange") as span:
            outcome = self._run((request,), span.trace_id)[0]
            tags = span.tags
            tags["delivered"] = outcome.delivered
            tags["mode"] = outcome.mode
            tags["reason_code"] = outcome.reason_code
            # Identity enrichment only for spans somebody will read:
            # head-sampled ones and failures (which tail retention
            # promotes); a sampled-out healthy span is dropped at
            # settlement, and skipping its tags is most of sampling's
            # win.  The receiver's organisation is one read of the KB's
            # person index, which the exchange's route read too.
            if span.sampled or not outcome.delivered:
                tags["domain"] = self.name
                tags["sender"] = request.sender
                tags["receiver"] = request.receiver
                tags["sender_app"] = request.sender_app
                tags["receiver_app"] = request.receiver_app
                if self._shard_of is not None:
                    org = self.resolution.organisation_of(request.receiver)
                    if org:
                        tags["shard"] = self._shard_of(org)
            return outcome

    def exchange_many(self, requests: "list[ExchangeRequest]") -> list[ExchangeOutcome]:
        """Deliver a batch of exchanges, amortising per-call overheads.

        Every outcome field except ``trace_id`` is what :meth:`exchange`
        returns for the same request: both run the one pipeline.  The
        batch shares one ``env.exchange_many`` trace span and a single
        aggregated metrics flush, and runs of consecutive requests with
        the same route (:meth:`ExchangeRequest.same_route`) resolve org
        membership, policy, formats and the receiver endpoint **once per
        run** instead of once per document.  Within a run, consecutive
        requests carrying the *same document object* share one
        translation and one size computation (converters are
        shape-deterministic, see :class:`~repro.information.interchange`).

        Hoisting never serves stale state: the run watches the
        knowledge base's ``generation`` token, so a delivery callback
        that mutates the knowledge base mid-batch (a revoked policy, a
        moved person) makes the remaining items of the current run
        re-admit — they fail or deliver exactly as separate
        :meth:`exchange` calls would (presence and queue depth are read
        item by item).
        """
        if not self.tracer.enabled:
            return self._run(requests, "")
        with self.tracer.span(
            "env.exchange_many", domain=self.name, batch=len(requests)
        ) as span:
            outcomes = self._run(requests, span.trace_id)
            delivered = sum(1 for outcome in outcomes if outcome.delivered)
            span.tag(delivered=delivered, failed=len(outcomes) - delivered)
            return outcomes

    def _run(self, requests: Sequence[ExchangeRequest], trace_id: str) -> list[ExchangeOutcome]:
        """Run *requests* as runs of consecutive same-route requests, one
        outcome each, and flush the batch's metrics once."""
        outcomes: list[ExchangeOutcome] = []
        start = 0
        for index in range(1, len(requests)):
            if not requests[index].same_route(requests[start]):
                self._exchange_group(requests[start:index], trace_id, outcomes)
                start = index
        if requests:
            self._exchange_group(requests[start:], trace_id, outcomes)
            if self.metrics.enabled:
                self._flush_metrics(outcomes)
        return outcomes

    def _translate(
        self, source: str, target: str, payload: "dict[str, Any]", floor: float
    ) -> "TranslationResult | _Refusal":
        """Stage 6: translate via the static hub, falling back to the mediator.

        The :class:`InterchangeService` serves the classic
        both-formats-registered case; the mediator (when wired via
        ``with_mediation()``) takes over when the hub cannot — a format
        it has never seen, or a hub plan too lossy for the caller's
        ``min_fidelity`` *floor* (the mediator may know a direct or
        partial route with better fidelity).  Returns the translation,
        else a :data:`REASON_TRANSLATION` refusal when no route exists
        or a :data:`REASON_FIDELITY` one when none meets the floor.
        """
        interchange, mediator = self.interchange, self.mediator
        below = ""
        try:
            if mediator is None or (
                interchange.is_registered(source) and interchange.is_registered(target)
            ):
                result = interchange.translate(source, target, payload)
                if result.fidelity >= floor:
                    return result
                below = (
                    f"hub plan {source!r} -> {target!r} keeps fidelity "
                    f"{result.fidelity:.3f}, below the requested floor {floor:.3f}"
                )
                if mediator is None:
                    return _Refusal(REASON_FIDELITY, below)
            return mediator.translate(source, target, payload, min_fidelity=floor)
        except FidelityError as exc:
            return _Refusal(REASON_FIDELITY, str(exc))
        except InteropError as exc:
            if below:  # no mediated route either: report the hub's best offer
                return _Refusal(REASON_FIDELITY, f"{below}, and no mediated plan improves on it")
            return _Refusal(REASON_TRANSLATION, str(exc))

    def _admit(
        self,
        request: ExchangeRequest,
        active: TransparencyProfile,
        at_origin: bool = False,
    ) -> "_Refusal | _Admission | None":
        """Admit one route: stages 2–5 of the module's stage list, plus
        the receiver endpoint and delivery callback lookups.

        Returns a :class:`_Refusal` naming the first check that fails,
        else the route-constant :data:`_Admission` a run delivers with
        (its endpoint is None for a receiver with no communicator: stage
        7 reports that per document; an unregistered application raises
        :class:`~repro.util.errors.NotRegisteredError`).  A federation's
        origin domain admits *at_origin*: it decides only the stages the
        origin owns, and None means the request may be relayed.
        *active* is the request's transparency profile.
        """
        activity_id = request.activity_id
        if activity_id:
            try:
                activity = self.activities.get(activity_id)
            except UnknownObjectError as exc:
                return _Refusal(REASON_MEMBERSHIP, str(exc))
            for person in (request.sender, request.receiver):
                if not activity.is_member(person):
                    return _Refusal(
                        REASON_MEMBERSHIP, f"{person} is not a member of {activity_id}"
                    )
        verdict = self.resolution.route(request.sender, request.receiver, request.interaction)
        handled: tuple[str, ...] = ()
        if verdict.cross_org:
            if not active.organisation:
                return _Refusal(
                    REASON_ORGANISATION_OPAQUE,
                    f"cross-organisation exchange ({verdict.sender_org} -> "
                    f"{verdict.receiver_org}) with organisation transparency off",
                )
            if not verdict.policy_ok:
                return _Refusal(
                    REASON_POLICY,
                    f"no compatible policy between {verdict.sender_org} and "
                    f"{verdict.receiver_org} for {request.interaction}",
                )
            handled = ("organisation",)
        if at_origin:
            return None
        sender_format, receiver_format = self.resolution.formats(
            request.sender_app, request.receiver_app
        )
        if sender_format != receiver_format:
            if not active.view:
                return _Refusal(
                    REASON_VIEW_OPAQUE,
                    f"format mismatch ({sender_format} -> {receiver_format}) "
                    "with view transparency off",
                )
            handled += ("view",)
        if active.activity and activity_id:
            handled += ("activity",)
        try:
            endpoint = self.communicators.get(request.receiver)
        except UnknownObjectError:
            endpoint = None
        deliver = self.applications.callback(request.receiver_app)
        # Contexts are frozen values, so one per (activity, org pair) is
        # shared by every exchange record; building one costs as much as
        # the rest of the admission.
        key = (activity_id, verdict.sender_org, verdict.receiver_org)
        context = self._contexts.get(key)
        if context is None:
            context = self._contexts[key] = CommunicationContext(
                activity=activity_id,
                from_org=verdict.sender_org,
                to_org=verdict.receiver_org,
            )
        return context, sender_format, receiver_format, handled, endpoint, deliver

    def _exchange_group(
        self, group: Sequence[ExchangeRequest], trace_id: str, outcomes: list[ExchangeOutcome]
    ) -> None:
        """Run one run of same-route requests through the module's stage list, appending
        one outcome per request to *outcomes* (the caller flushes the metrics)."""
        head = group[0]
        size = len(group)
        receiver = head.receiver
        self.exchanges_attempted += size
        now = self.world.now
        expires_at, refusal = self._expiry(head, now)
        if refusal is not None:  # expired (e.g. after gateway hops): no pipeline work
            self._count_drops(
                "expired", KIND_DEADLINE, now, trace_id,
                receiver=receiver, deadline=expires_at, dropped=size,
            )
            return self._refuse(refusal, size, trace_id, outcomes)
        active = head.profile if head.profile is not None else _ALL_ON
        activity_id = head.activity_id if active.activity else ""
        topic = f"activity/{activity_id}/exchange" if activity_id else "exchange"
        generation = -1  # admits the route on the first item
        shed = 0
        for index, request in enumerate(group):
            if self.knowledge_base.generation != generation:
                # first item, or a callback mutated the KB: the admission may be stale
                generation = self.knowledge_base.generation
                last_document = outcome = None
                admitted = self._admit(head, active)
                if admitted.__class__ is _Refusal:
                    # no later callback can re-admit the route: the rest of the run fails
                    self._refuse(admitted, size - index, trace_id, outcomes)
                    break
                context, source, target, handled, endpoint, deliver = admitted
                translated = source != target
            refusal = None
            document = request.document
            # items carrying one document object share its translation, size and outcome
            if document is not last_document:
                last_document, outcome = document, None
                # the one copy: the sender's dict is never translated or delivered
                payload, fidelity = dict(document), 1.0
                if translated:
                    result = self._translate(source, target, payload, head.min_fidelity)
                    if result.__class__ is _Refusal:
                        refusal, last_document = result, None  # the next item retries
                    else:
                        payload, fidelity = result.document, result.fidelity
                if refusal is None:
                    size_bytes = document_size(payload)
            # stages 7-9 run per item: callbacks flip presence, deliveries fill queues
            if refusal is not None:
                pass  # stage 6 refused it
            elif endpoint is None:  # never registered: queueing would blackhole it
                refusal = _Refusal(REASON_UNKNOWN_RECEIVER, unknown_receiver_reason(receiver))
            elif endpoint.present:
                mode = "synchronous"
            elif not active.time:
                absent = f"receiver {receiver} absent with time transparency off"
                refusal = _Refusal(REASON_TIME_OPAQUE, absent)
            elif head.priority <= 0 and self._queue_full(receiver):
                shed += 1
                queued = f"receiver {receiver} has {self._shed_limit} deliveries queued; "
                refusal = _Refusal(REASON_OVERLOAD, queued + "shedding to protect the environment")
            else:
                mode = "asynchronous"
            if refusal is None:  # stage 10: deliver now, or queue for the receiver's return
                info = {"sender": head.sender, "sender_app": head.sender_app, "mode": mode,
                        "fidelity": fidelity, "activity": head.activity_id}
                self.bus.publish(topic, info, source=head.sender_app, time=now)
                # every delivery owns its top-level dict: the payload on its last use
                shared = index + 1 < size and group[index + 1].document is document
                rendered = self.views.render(receiver, dict(payload) if shared else payload)
                if mode == "asynchronous":
                    self._pending_deliveries.setdefault(receiver, []).append(
                        (deliver, rendered, info, expires_at)
                    )
                else:
                    try:
                        deliver(receiver, rendered, info)
                    except Exception as exc:  # the application's fault, not the run's
                        raised = f"application {head.receiver_app!r} raised {type(exc).__name__}"
                        refusal = _Refusal(REASON_APPLICATION_ERROR, f"{raised}: {exc}")
            if refusal is not None:
                self._refuse(refusal, 1, trace_id, outcomes)
                continue
            self.communication_log.record(
                Exchange(head.sender, receiver, mode, "document", size_bytes, now, context)
            )
            if outcome is None or outcome.mode != mode:
                outcome = ExchangeOutcome(
                    delivered=True, mode=mode, reason=f"delivered ({mode})",
                    translated=translated, fidelity=fidelity,
                    handled=handled if mode == "synchronous" else _with_time(handled),
                    reason_code=REASON_DELIVERED, trace_id=trace_id, size_bytes=size_bytes,
                )
            outcomes.append(outcome)
        if shed:
            self._count_drops(
                "overload", KIND_SHED, now, trace_id, receiver=receiver,
                queued=self._shed_limit, dropped=shed, shed_class=head.shed_class,
            )

    def _queue_full(self, receiver: str) -> bool:
        """Stage 9's test: *receiver*'s queue has reached the shed limit."""
        limit = self._shed_limit
        return limit is not None and len(self._pending_deliveries.get(receiver, ())) >= limit

    def _count_drops(
        self, counter: str, kind: str, now: float, trace_id: str, **attrs: Any
    ) -> None:
        """Count ``attrs["dropped"]`` exchanges the environment dropped as
        ``env.shed.<counter>`` and record one *kind* event with *attrs*."""
        if self.metrics.enabled:
            self.metrics.inc(f"env.shed.{counter}", attrs["dropped"])
        if self.events.enabled:
            self.events.record(now, kind, trace_id=trace_id, env=self.name, **attrs)

    def _refuse(
        self,
        refusal: _Refusal,
        count: int,
        trace_id: str,
        outcomes: list[ExchangeOutcome],
    ) -> None:
        """Fail *count* requests with one refusal, appended to *outcomes*:
        the one place a failed :class:`ExchangeOutcome` is built."""
        self.exchanges_failed += count
        failed = ExchangeOutcome(
            delivered=False, mode="failed", reason=refusal.reason,
            reason_code=refusal.code, trace_id=trace_id,
        )
        outcomes.extend([failed] * count)

    def _flush_metrics(self, outcomes: "list[ExchangeOutcome]") -> None:
        """Count a batch's outcomes into the metrics registry at once."""
        total = len(outcomes)
        observe_size = self._m_document_bytes.observe
        by_handled = self._m_handled
        delivered = 0
        for outcome in outcomes:
            if outcome.delivered:
                delivered += 1
                observe_size(outcome.size_bytes)
                handled = outcome.handled
                counters = by_handled.get(handled)
                if counters is None:
                    counters = by_handled[handled] = tuple(
                        self.metrics.counter(f"env.exchange.transparency.{dimension}")
                        for dimension in handled
                    )
                for counter in counters:
                    counter.inc()
                continue
            code = outcome.reason_code
            counter = self._m_failure_reasons.get(code)
            if counter is None:
                counter = self._m_failure_reasons[code] = self._m_reasons.labels(
                    domain=self.name, reason=code
                )
            counter.inc()
        if delivered:
            self._m_delivered.inc(delivered)
            self._m_reason_delivered.inc(delivered)
        if delivered != total:
            self._m_failed.inc(total - delivered)

    # -- runtime overload knobs (driven by the control plane) -------------------
    @property
    def shed_limit(self) -> int | None:
        """Current per-receiver queue-depth shed limit (None = never shed)."""
        return self._shed_limit

    def set_shed_limit(self, limit: int | None) -> None:
        """Change the shed limit at runtime (same contract as the builder's
        ``with_shed_limit``).

        The adaptive control plane tightens this under SLO burn and
        relaxes it back after recovery; already-queued deliveries are
        untouched — only admission of *new* asynchronous deliveries is
        affected.
        """
        if limit is not None and limit < 1:
            raise ConfigurationError("shed limit must be >= 1 (or None)")
        self._shed_limit = limit

    def effective_deadline(self, deadline: float | None) -> float | None:
        """Resolve a caller deadline against the configured default.

        An explicit *deadline* (absolute simulated time) wins; otherwise
        the builder's ``with_default_deadline`` (relative seconds) is
        applied from now; otherwise exchanges never expire.
        """
        if deadline is not None:
            return deadline
        if self._default_deadline_s is not None:
            return self.world.now + self._default_deadline_s
        return None

    def _expiry(
        self, request: ExchangeRequest, now: float
    ) -> "tuple[float | None, _Refusal | None]":
        """The deadline stage: *request*'s effective deadline, and the
        refusal when it has passed at *now*.  Each caller counts the
        expiry its own way."""
        expires_at = self.effective_deadline(request.deadline)
        if expires_at is not None and now >= expires_at:
            return expires_at, _Refusal(
                REASON_DEADLINE_EXCEEDED, deadline_reason(expires_at, now)
            )
        return expires_at, None

    def _fail(self, refusal: _Refusal) -> ExchangeOutcome:
        """Count and return one exchange refused before any run took it:
        a federation's origin-side refusal, counted exactly as the
        pipeline counts a refused run."""
        outcomes: list[ExchangeOutcome] = []
        self.exchanges_attempted += 1
        self._refuse(refusal, 1, "", outcomes)
        if self.metrics.enabled:
            self._flush_metrics(outcomes)
        return outcomes[0]

    def describe(self) -> dict[str, Any]:
        """An inventory snapshot of the running environment.

        Covers the registered applications (with their quadrants), people
        and presence, activities by status, traded service types and
        exchange counters — the administrator's view of Figure 3.  When
        an enabled metrics registry is attached, a ``metrics`` section
        with its full snapshot is included.
        """
        inventory: dict[str, Any] = {
            "name": self.name,
            "applications": self.applications.coverage_matrix(),
            "people": {
                c.person_id: {"node": c.node, "present": c.present}
                for c in self.communicators.all()
            },
            "activities": {a.activity_id: a.status.value for a in self.activities.all()},
            "service_offers": sorted({offer.service_type for offer in self.trader.offers()}),
            "organisations": sorted(o.org_id for o in self.knowledge_base.organisations()),
            "exchanges": {
                "attempted": self.exchanges_attempted,
                "failed": self.exchanges_failed,
            },
            "resolution_cache": self.resolution.stats(),
            "integration_cost": self.integration_cost(),
            "interop_coverage": self.interop_coverage(),
        }
        if self.metrics.enabled:
            inventory["metrics"] = self.metrics.snapshot()
        return inventory

    # -- reporting ---------------------------------------------------------------
    def interop_coverage(self) -> float:
        """Fraction of ordered app pairs that can exchange documents.

        In the environment world this is 1.0 as soon as every application
        registers a converter — the quantified claim of Figure 3.
        """
        names = self.applications.names()
        if len(names) < 2:
            return 1.0
        formats = [self.applications.descriptor(name).format_name for name in names]
        hub = self.interchange.is_registered
        reachable = sum(
            1
            for a, fa in enumerate(formats)
            for b, fb in enumerate(formats)
            if a != b and (fa == fb or (hub(fa) and hub(fb)))
        )
        return reachable / (len(names) * (len(names) - 1))

    def integration_cost(self) -> int:
        """Number of integration artifacts built: one converter per app."""
        return self.interchange.converter_count()
