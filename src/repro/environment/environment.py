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
requests; each run is admitted once (membership, organisation/policy,
view, receiver endpoint — memoised in a
:class:`~repro.environment.resolution.ResolutionCache` invalidated by
knowledge-base and registry mutations), its documents are delivered one
by one, and the batch's metrics are flushed once.  :meth:`exchange` is
that pipeline run on a batch of one.
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World
from repro.util.errors import (
    ConfigurationError,
    FidelityError,
    InteropError,
    UnknownObjectError,
)
from repro.util.serialization import document_size

if TYPE_CHECKING:
    from repro.environment.builder import EnvironmentBuilder

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
    """Why a route was refused admission: a ``REASON_*`` code and text."""

    code: str
    reason: str


#: the route-constant state of an admitted run: its communication
#: context, the (sender, receiver) formats, the dimensions a synchronous
#: delivery handles (in pipeline order) and the receiver's endpoint
#: (None when they have no communicator); a plain tuple, as a run of one
#: pays for its construction on every exchange
_Admission = tuple[CommunicationContext, str, str, tuple[str, ...], "Communicator | None"]


@dataclass(frozen=True, slots=True)
class ExchangeOutcome:
    """What happened to one cross-application exchange.

    ``reason`` (human text) and ``reason_code`` (one of the ``REASON_*``
    constants) are populated uniformly for delivered and failed
    exchanges; ``trace_id`` carries the trace the exchange ran under
    when the environment has a tracer attached ('' otherwise).
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
    accepts one of these (the legacy keyword form goes through
    :meth:`from_call`, so the two call styles cannot drift apart).

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

    @classmethod
    def from_kwargs(
        cls,
        sender: str,
        receiver: str,
        sender_app: str,
        receiver_app: str,
        document: dict[str, Any],
        activity_id: str = "",
        profile: TransparencyProfile | None = None,
        interaction: str = INTERACTION_MESSAGE,
        deadline: float | None = None,
        priority: int = 0,
        shed_class: str = "",
        min_fidelity: float = 0.0,
    ) -> "ExchangeRequest":
        """Build a request from the legacy positional/keyword arguments.

        This is the one place the keyword call shape is defined; the
        ``exchange`` entry points of the environment, the environment
        server client and the federation reach it through
        :meth:`from_call`.
        """
        return cls(
            sender=sender,
            receiver=receiver,
            sender_app=sender_app,
            receiver_app=receiver_app,
            document=document,
            activity_id=activity_id,
            profile=profile,
            interaction=interaction,
            deadline=deadline,
            priority=priority,
            shed_class=shed_class,
            min_fidelity=min_fidelity,
        )

    @classmethod
    def from_call(
        cls, request: Any, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> "ExchangeRequest":
        """The request an ``exchange``-shaped entry point was called with.

        *request* is the positional-only first argument; when it is not
        already a request, it and *args*/*kwargs* are the legacy
        positional/keyword form and go through :meth:`from_kwargs`.
        """
        if isinstance(request, cls):
            return request
        positional = () if request is None else (request,)
        return cls.from_kwargs(*positional, *args, **kwargs)

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
        """The wire form of the request (profile flattened to a dict).

        Used by the environment server channel and the federation's
        gateway relays; :meth:`from_document` is the inverse.
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
        """Rebuild a request from its wire form (tolerant of old senders
        that omit the newer annotation fields)."""
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

    The recommended construction path is :meth:`builder`, which can
    inject observability (``with_metrics``/``with_tracer``) and extra
    trading policy at construction time; the plain constructor remains
    supported and routes through the same builder wiring.
    """

    def __init__(
        self,
        world: World,
        name: str = "mocca",
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        """Build an environment on *world*; keyword-only *metrics* and
        *tracer* opt into observability (equivalent to the builder's
        ``with_metrics``/``with_tracer``)."""
        from repro.environment.builder import EnvironmentBuilder

        spec = EnvironmentBuilder(type(self)).with_world(world).with_name(name)
        if metrics is not None:
            spec = spec.with_metrics(metrics)
        if tracer is not None:
            spec = spec.with_tracer(tracer)
        spec._wire(self)

    @classmethod
    def builder(cls) -> "EnvironmentBuilder":
        """A fluent :class:`~repro.environment.builder.EnvironmentBuilder`
        producing instances of this class."""
        from repro.environment.builder import EnvironmentBuilder

        return EnvironmentBuilder(cls)

    def _bind_labelled_metrics(self) -> None:
        """Resolve the environment's exchange metrics once.

        The flat ``env.exchange.*`` names stay authoritative (dashboards
        and tests key on them); the labelled families add the ``domain``
        dimension that lets federated runs sharing one registry tell
        their environments apart.  Binding against
        :data:`~repro.obs.metrics.NULL_METRICS` yields null instruments,
        so the hot-path ``inc`` calls stay no-ops when metrics are off.
        Per-reason and per-dimension counters are bound on first use (a
        series appears once it has something to count) and then kept.
        """
        obs = self.metrics
        self._m_attempted = obs.counter("env.exchange.attempted")
        self._m_outcome_delivered = obs.counter("env.exchange.outcome.delivered")
        self._m_outcome_failed = obs.counter("env.exchange.outcome.failed")
        self._m_reason_delivered_flat = obs.counter(
            f"env.exchange.reason.{REASON_DELIVERED}"
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
        #: failure reason code -> (flat counter, labelled child)
        self._m_failure_reasons: dict[str, tuple[Any, Any]] = {}
        #: transparency dimension -> flat counter
        self._m_dimensions: dict[str, Any] = {}

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
        for app_name, document, info, expires_at in pending:
            if expires_at is not None and now >= expires_at:
                expired += 1
                continue
            try:
                self.applications.deliver(app_name, person_id, document, info)
            except Exception:  # one raising callback must not drop the rest
                if self.metrics.enabled:
                    self.metrics.inc("env.flush.application_error")
                continue
            flushed += 1
        if expired:
            if self.metrics.enabled:
                self.metrics.inc("env.shed.expired", expired)
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_DEADLINE,
                    env=self.name,
                    receiver=person_id,
                    dropped=expired,
                    at="flush",
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
    def exchange(self, request=None, /, *args: Any, **kwargs: Any) -> ExchangeOutcome:
        """Deliver one :class:`ExchangeRequest` (or legacy keyword form).

        The canonical call passes a single request object::

            env.exchange(ExchangeRequest(sender, receiver, ..., document))

        The legacy positional/keyword form (``exchange(sender, receiver,
        sender_app, receiver_app, document, ...)``) remains supported
        through :meth:`ExchangeRequest.from_call` and produces identical
        outcomes.

        A single exchange is a batch of one: it runs the pipeline of
        :meth:`exchange_many`, so its outcome and counters are exactly
        those of ``exchange_many([request])``.

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
        carries; when a metrics registry is attached, outcomes are
        counted by reason code and transparency dimension.
        """
        request = ExchangeRequest.from_call(request, args, kwargs)
        with self.tracer.span("env.exchange") as span:
            outcomes: list[ExchangeOutcome] = []
            self._exchange_group((request,), span.trace_id, outcomes)
            if self.metrics.enabled:
                self._flush_metrics(outcomes)
            outcome = outcomes[0]
            span.tag(
                delivered=outcome.delivered,
                mode=outcome.mode,
                reason_code=outcome.reason_code,
            )
            # Identity enrichment only for spans somebody will read:
            # head-sampled ones, and failures (which tail retention
            # promotes).  A sampled-out healthy span is dropped at
            # settlement, so tagging it would be pure overhead — this
            # is most of sampling's win on the hot path.
            if span.sampled or (self.tracer.enabled and not outcome.delivered):
                span.tag(
                    domain=self.name,
                    sender=request.sender,
                    receiver=request.receiver,
                    sender_app=request.sender_app,
                    receiver_app=request.receiver_app,
                )
                if self._shard_of is not None:
                    try:
                        shard = self._shard_of(request.receiver)
                    except UnknownObjectError:
                        shard = ""
                    if shard:
                        span.tag(shard=shard)
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
        resolution cache's ``generation`` token, so a delivery callback
        that mutates the knowledge base mid-batch (a revoked policy, a
        moved person) makes the remaining items of the current run
        re-admit — they fail or deliver exactly as separate
        :meth:`exchange` calls would (presence and queue depth are read
        item by item).
        """
        with self.tracer.span(
            "env.exchange_many", domain=self.name, batch=len(requests)
        ) as span:
            outcomes: list[ExchangeOutcome] = []
            start = 0
            for index in range(1, len(requests)):
                if not requests[index].same_route(requests[start]):
                    self._exchange_group(requests[start:index], span.trace_id, outcomes)
                    start = index
            if requests:
                self._exchange_group(requests[start:], span.trace_id, outcomes)
                if self.metrics.enabled:
                    self._flush_metrics(outcomes)
            delivered = sum(1 for outcome in outcomes if outcome.delivered)
            span.tag(delivered=delivered, failed=len(outcomes) - delivered)
            return outcomes

    def _translate_payload(
        self,
        source_format: str,
        target_format: str,
        payload: "dict[str, Any]",
        min_fidelity: float,
    ):
        """Translate via the static hub, falling back to the mediator.

        The :class:`InterchangeService` serves the classic
        both-formats-registered case; the mediator (when wired via
        ``with_mediation()``) takes over when the hub cannot — a format
        it has never seen, or a hub plan too lossy for the caller's
        ``min_fidelity`` floor (the mediator may know a direct or
        partial route with better fidelity).  Raises
        :class:`~repro.util.errors.InteropError` when no route exists
        and :class:`~repro.util.errors.FidelityError` when routes exist
        but none meets the floor.
        """
        interchange = self.interchange
        mediator = self.mediator
        if mediator is None:
            result = interchange.translate(source_format, target_format, payload)
            if result.fidelity < min_fidelity:
                raise FidelityError(
                    f"hub plan {source_format!r} -> {target_format!r} keeps "
                    f"fidelity {result.fidelity:.3f}, below the requested "
                    f"floor {min_fidelity:.3f}",
                    best_fidelity=result.fidelity,
                    min_fidelity=min_fidelity,
                )
            return result
        if interchange.is_registered(source_format) and interchange.is_registered(
            target_format
        ):
            result = interchange.translate(source_format, target_format, payload)
            if result.fidelity >= min_fidelity:
                return result
            try:
                return mediator.translate(
                    source_format, target_format, payload, min_fidelity=min_fidelity
                )
            except FidelityError:
                raise
            except InteropError:
                # no mediated route either — report the hub's best offer
                raise FidelityError(
                    f"hub plan {source_format!r} -> {target_format!r} keeps "
                    f"fidelity {result.fidelity:.3f}, below the requested "
                    f"floor {min_fidelity:.3f}, and no mediated plan improves "
                    "on it",
                    best_fidelity=result.fidelity,
                    min_fidelity=min_fidelity,
                ) from None
        return mediator.translate(
            source_format, target_format, payload, min_fidelity=min_fidelity
        )

    def _admit(
        self,
        request: ExchangeRequest,
        active: TransparencyProfile,
        at_origin: bool = False,
    ) -> "_Refusal | _Admission | None":
        """Admit one route: activity membership, organisation/policy,
        view, then the receiver endpoint.

        Returns a :class:`_Refusal` naming the first check that fails,
        else the route-constant :data:`_Admission` a run delivers with
        (its endpoint is None for a receiver with no communicator: the
        pipeline reports that after translating, per document).  A
        federation's origin domain admits *at_origin*: only membership
        and organisation/policy are decided there — the view and the
        endpoint are the target's — and None means the request may be
        relayed.  *active* is the request's transparency profile.
        """
        activity_id = request.activity_id
        if activity_id:
            activity = self.activities.get(activity_id)
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
        return context, sender_format, receiver_format, handled, endpoint

    def _exchange_group(
        self,
        group: Sequence[ExchangeRequest],
        trace_id: str,
        outcomes: list[ExchangeOutcome],
    ) -> None:
        """Run one run of same-route requests through the pipeline.

        The deadline and the route's admission (:meth:`_admit`) are
        decided once for the run; each document is then translated,
        checked against the receiver endpoint, presence and queue depth,
        and delivered.  Appends one outcome per request to *outcomes*;
        the caller flushes the metrics.
        """
        head = group[0]
        size = len(group)
        receiver = head.receiver
        self.exchanges_attempted += size
        now = self.world.now
        # Deadline first: an exchange that arrives expired (e.g. after
        # gateway hops) must not consume pipeline work.
        expires_at = self.effective_deadline(head.deadline)
        if expires_at is not None and now >= expires_at:
            if self.metrics.enabled:
                self.metrics.inc("env.shed.expired", size)
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_DEADLINE,
                    trace_id=trace_id,
                    env=self.name,
                    receiver=receiver,
                    deadline=expires_at,
                    dropped=size,
                )
            refusal = _Refusal(REASON_DEADLINE_EXCEEDED, deadline_reason(expires_at, now))
            return self._refuse(refusal, size, trace_id, outcomes)
        active = head.profile if head.profile is not None else _ALL_ON
        resolution = self.resolution
        generation = resolution.generation
        admitted = self._admit(head, active)
        if admitted.__class__ is _Refusal:
            return self._refuse(admitted, size, trace_id, outcomes)
        context, sender_format, receiver_format, handled, endpoint = admitted
        translated = sender_format != receiver_format

        sender = head.sender
        sender_app = head.sender_app
        receiver_app = head.receiver_app
        activity_id = head.activity_id
        topic = f"activity/{activity_id}/exchange" if active.activity and activity_id else "exchange"
        #: consecutive items carrying one document object share its
        #: translation, size and (per mode) delivered outcome
        last_document = None
        outcome: ExchangeOutcome | None = None
        failed = shed = sync_count = async_count = 0
        for request in group:
            if resolution.generation != generation:
                # A delivery callback mutated the knowledge base: the
                # hoisted admission may be stale, so re-admit.
                generation = resolution.generation
                last_document = outcome = None
                admitted = self._admit(head, active)
                if admitted.__class__ is _Refusal:
                    # refused items deliver nothing, so no callback can
                    # re-admit the route: the rest of the run fails
                    done = failed + sync_count + async_count
                    self._refuse(admitted, size - done, trace_id, outcomes)
                    break
                context, sender_format, receiver_format, handled, endpoint = admitted
                translated = sender_format != receiver_format
            document = request.document
            if document is not last_document:
                payload = dict(document)
                fidelity = 1.0
                if translated:
                    try:
                        result = self._translate_payload(
                            sender_format, receiver_format, payload, head.min_fidelity
                        )
                    except InteropError as exc:
                        last_document = None
                        failed += 1
                        outcomes.append(
                            ExchangeOutcome(
                                delivered=False,
                                mode="failed",
                                reason=str(exc),
                                reason_code=REASON_FIDELITY
                                if isinstance(exc, FidelityError)
                                else REASON_TRANSLATION,
                                trace_id=trace_id,
                            )
                        )
                        continue
                    payload = result.document
                    fidelity = result.fidelity
                size_bytes = document_size(payload)
                last_document = document
                outcome = None

            # A receiver who was *never* registered is a hard failure,
            # not an absence: queueing for them would blackhole the
            # document in _pending_deliveries forever.
            if endpoint is None:
                failed += 1
                outcomes.append(
                    ExchangeOutcome(
                        delivered=False,
                        mode="failed",
                        reason=unknown_receiver_reason(receiver),
                        reason_code=REASON_UNKNOWN_RECEIVER,
                        trace_id=trace_id,
                    )
                )
                continue
            # presence and queue depth are read per item: a delivery
            # callback may flip presence, and each queued delivery counts
            # against the next one's shed check
            if endpoint.present:
                mode = "synchronous"
            else:
                if not active.time:
                    failed += 1
                    outcomes.append(
                        ExchangeOutcome(
                            delivered=False,
                            mode="failed",
                            reason=f"receiver {receiver} absent with time transparency off",
                            reason_code=REASON_TIME_OPAQUE,
                            trace_id=trace_id,
                        )
                    )
                    continue
                if (
                    head.priority <= 0
                    and self._shed_limit is not None
                    and len(self._pending_deliveries.get(receiver, ())) >= self._shed_limit
                ):
                    failed += 1
                    shed += 1
                    outcomes.append(
                        ExchangeOutcome(
                            delivered=False,
                            mode="failed",
                            reason=f"receiver {receiver} has {self._shed_limit} "
                            "deliveries queued; shedding to protect the environment",
                            reason_code=REASON_OVERLOAD,
                            trace_id=trace_id,
                        )
                    )
                    continue
                mode = "asynchronous"

            info = {
                "sender": sender,
                "sender_app": sender_app,
                "mode": mode,
                "fidelity": fidelity,
                "activity": activity_id,
            }
            self.bus.publish(topic, info, source=sender_app, time=now)
            rendered = self.views.render(receiver, payload)
            # Deliver immediately when the receiver is present, queued
            # for their return otherwise (store-and-forward).
            if mode == "synchronous":
                try:
                    self.applications.deliver(receiver_app, receiver, rendered, info)
                except Exception as exc:  # the application's fault, not the run's
                    failed += 1
                    outcomes.append(
                        ExchangeOutcome(
                            delivered=False,
                            mode="failed",
                            reason=f"application {receiver_app!r} raised "
                            f"{type(exc).__name__}: {exc}",
                            reason_code=REASON_APPLICATION_ERROR,
                            trace_id=trace_id,
                        )
                    )
                    continue
                sync_count += 1
            else:
                self._pending_deliveries.setdefault(receiver, []).append(
                    (receiver_app, rendered, info, expires_at)
                )
                async_count += 1
            self.communication_log.record(
                Exchange(
                    sender=sender,
                    receiver=receiver,
                    mode=mode,
                    media="document",
                    size_bytes=size_bytes,
                    time=now,
                    context=context,
                )
            )
            if outcome is None or outcome.mode != mode:
                outcome = ExchangeOutcome(
                    delivered=True,
                    mode=mode,
                    reason=f"delivered ({mode})",
                    translated=translated,
                    fidelity=fidelity,
                    handled=handled if mode == "synchronous" else _with_time(handled),
                    reason_code=REASON_DELIVERED,
                    trace_id=trace_id,
                    size_bytes=size_bytes,
                )
            outcomes.append(outcome)

        world_metrics = self.world.metrics
        if failed:
            self.exchanges_failed += failed
            world_metrics.increment("env.exchange.failed", failed)
        if shed:
            if self.metrics.enabled:
                self.metrics.inc("env.shed.overload", shed)
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_SHED,
                    trace_id=trace_id,
                    env=self.name,
                    receiver=receiver,
                    queued=self._shed_limit,
                    dropped=shed,
                    shed_class=head.shed_class,
                )
        if sync_count or async_count:
            world_metrics.increment("env.exchange.delivered", sync_count + async_count)
            if sync_count:
                world_metrics.increment("env.exchange.synchronous", sync_count)
            if async_count:
                world_metrics.increment("env.exchange.asynchronous", async_count)

    def _refuse(
        self,
        refusal: _Refusal,
        count: int,
        trace_id: str,
        outcomes: list[ExchangeOutcome],
    ) -> None:
        """Fail *count* requests with one refusal, appended to *outcomes*."""
        self.exchanges_failed += count
        self.world.metrics.increment("env.exchange.failed", count)
        outcomes.extend(
            [
                ExchangeOutcome(
                    delivered=False,
                    mode="failed",
                    reason=refusal.reason,
                    reason_code=refusal.code,
                    trace_id=trace_id,
                )
            ]
            * count
        )

    def _flush_metrics(self, outcomes: "list[ExchangeOutcome]") -> None:
        """Count a batch's outcomes into the metrics registry at once."""
        total = len(outcomes)
        self._m_attempted.inc(total)
        observe_size = self._m_document_bytes.observe
        dimensions = self._m_dimensions
        delivered = 0
        for outcome in outcomes:
            if outcome.delivered:
                delivered += 1
                observe_size(outcome.size_bytes)
                for dimension in outcome.handled:
                    counter = dimensions.get(dimension)
                    if counter is None:
                        counter = dimensions[dimension] = self.metrics.counter(
                            f"env.exchange.transparency.{dimension}"
                        )
                    counter.inc()
                continue
            code = outcome.reason_code
            counters = self._m_failure_reasons.get(code)
            if counters is None:
                counters = self._m_failure_reasons[code] = (
                    self.metrics.counter(f"env.exchange.reason.{code}"),
                    self._m_reasons.labels(domain=self.name, reason=code),
                )
            counters[0].inc()
            counters[1].inc()
        if delivered:
            self._m_outcome_delivered.inc(delivered)
            self._m_reason_delivered_flat.inc(delivered)
            self._m_delivered.inc(delivered)
            self._m_reason_delivered.inc(delivered)
        if delivered != total:
            self._m_outcome_failed.inc(total - delivered)
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

    @property
    def default_deadline_s(self) -> float | None:
        """Current relative default deadline in simulated seconds."""
        return self._default_deadline_s

    def set_default_deadline(self, seconds: float | None) -> None:
        """Change the default deadline at runtime (same contract as the
        builder's ``with_default_deadline``); applies to exchanges
        started after the call."""
        if seconds is not None and seconds <= 0:
            raise ConfigurationError("default deadline must be > 0 (or None)")
        self._default_deadline_s = seconds

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

    def _fail(self, code: str, reason: str) -> ExchangeOutcome:
        """Count and return one exchange refused before any run took it.

        The federation's origin-side refusals (expired deadlines,
        unroutable receivers, membership/organisation/policy, failed
        relays) are this environment's exchanges too, counted exactly
        as the pipeline counts a refused run.
        """
        outcomes: list[ExchangeOutcome] = []
        self.exchanges_attempted += 1
        self._refuse(_Refusal(code, reason), 1, "", outcomes)
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
            "activities": {
                a.activity_id: a.status.value for a in self.activities.all()
            },
            "service_offers": sorted(
                {offer.service_type for offer in self.trader.offers()}
            ),
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
        total = 0
        reachable = 0
        for a in names:
            for b in names:
                if a == b:
                    continue
                total += 1
                fa = self.applications.descriptor(a).format_name
                fb = self.applications.descriptor(b).format_name
                if fa == fb or (
                    self.interchange.is_registered(fa) and self.interchange.is_registered(fb)
                ):
                    reachable += 1
        return reachable / total if total else 1.0

    def integration_cost(self) -> int:
        """Number of integration artifacts built: one converter per app."""
        return self.interchange.converter_count()
