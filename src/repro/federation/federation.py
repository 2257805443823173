"""The federation coordinator: N domains, one engine, explicit boundaries.

This module composes the library's single-node primitives —
``NamingDomain.federate``, trader links, directory
:class:`~repro.directory.replication.ShadowingAgreement`, MTAs — into a
running multi-domain CSCW system: the "open distributed system" shape
the paper says open CSCW must take (organisation transparency across
administrative boundaries, not just inside one environment).

A :class:`Federation` owns a set of :class:`~repro.federation.domain.Domain`
objects on one shared :class:`~repro.sim.world.World` and keeps them
wired pairwise:

* **naming** — every domain's :class:`~repro.odp.naming.NamingDomain`
  federates with every peer, so ``people/ana`` resolves from anywhere as
  ``<home>:/people/ana``; the federation's home-domain lookups go through
  this federated naming and are memoised (invalidated on moves),
* **trading** — every env trader links to every peer trader, so an
  import that finds no local offer falls back over the links while each
  side's organisational import policy still applies,
* **directory** — each domain's DSA holds a shadowing agreement against
  every peer DSA (created unstarted; :meth:`start_shadowing` arms them),
* **messaging** — MTAs peer and route each other's X.400 domains,
* **gateways** — a directed :class:`~repro.federation.gateway.Gateway`
  per ordered pair relays exchange payloads over a configurable
  inter-domain link.

The headline operation is :meth:`federated_exchange_many` (and
:meth:`federated_exchange`, a batch of one): resolve each receiver's
home domain via federated naming, admit the request at the origin with
the local environment's own admission checks, relay each same-route run
through one gateway round trip, and feed it into the environment's
exchange pipeline at the target — so a federated outcome carries exactly
the reason codes a single-domain ``CSCWEnvironment.exchange`` would
produce, plus hop metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.communication.model import Communicator
from repro.environment.environment import (
    _ALL_ON,
    REASON_DEADLINE_EXCEEDED,
    REASON_UNKNOWN_RECEIVER,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
    deadline_reason,
    unknown_receiver_reason,
)
from repro.environment.registry import AppDescriptor, DeliveryCallback
from repro.directory.replication import ShadowingAgreement
from repro.federation.domain import Domain
from repro.federation.gateway import (
    REASON_RELAY_DEADLINE,
    DeadLetter,
    Gateway,
)
from repro.obs.context import TRACE_KEY, TraceContext
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.odp.binding import BindingFactory
from repro.odp.objects import InterfaceRef
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import HealthMonitor
from repro.sim.network import LinkSpec, WAN_LINK
from repro.sim.transport import DeferredReply
from repro.sim.world import World
from repro.util.errors import (
    ConfigurationError,
    InteropError,
    NameError_,
    NotRegisteredError,
    UnknownObjectError,
)

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.control.plane import ControlPlane, ControlPolicy
    from repro.obs.slo import SLOEngine

#: a federated exchange whose relay exhausted its gateway attempts
REASON_GATEWAY_DEAD_LETTER = "gateway-dead-letter"

#: outcome fields shipped over the gateway — trace_id included, so the
#: origin's reconstructed outcome stays correlated with the trace the
#: target pipeline actually ran under
_OUTCOME_FIELDS = (
    "delivered", "mode", "reason", "translated",
    "fidelity", "handled", "reason_code", "size_bytes", "trace_id",
)


@dataclass(frozen=True, slots=True)
class Hop:
    """One step in a federated exchange's path, stamped in simulated time."""

    domain: str
    role: str  # "local" | "origin" | "deliver" | "reply"
    time: float


@dataclass(frozen=True, slots=True)
class FederatedOutcome:
    """A cross-domain exchange outcome with its hop metadata.

    ``outcome`` is a plain :class:`ExchangeOutcome` with field parity to
    the single-domain exchange path (same reason codes on the same
    failure classes); the federation adds where the exchange ran
    (``origin``/``target``), the hops it took, how many gateway attempts
    the relay needed and the end-to-end simulated latency.
    """

    outcome: ExchangeOutcome
    origin: str
    target: str
    hops: tuple[Hop, ...] = ()
    attempts: int = 1
    latency_s: float = 0.0

    @property
    def delivered(self) -> bool:
        """Whether the document reached the receiving application."""
        return self.outcome.delivered

    @property
    def mode(self) -> str:
        """Delivery mode of the underlying exchange."""
        return self.outcome.mode

    @property
    def reason_code(self) -> str:
        """Structured reason code of the underlying exchange."""
        return self.outcome.reason_code

    @property
    def cross_domain(self) -> bool:
        """True when the exchange crossed a domain boundary."""
        return self.origin != self.target


def _outcome_document(outcome: ExchangeOutcome) -> dict[str, Any]:
    """The gateway wire form of an outcome."""
    document = {name: getattr(outcome, name) for name in _OUTCOME_FIELDS}
    document["handled"] = list(outcome.handled)
    return document


def _outcome_from_document(
    document: dict[str, Any], trace_id: str = ""
) -> ExchangeOutcome:
    """Rebuild an outcome at the origin.

    The wire document carries the trace id the target pipeline ran
    under; with trace propagation that *is* the origin's trace.
    *trace_id* is only a fallback for documents from older/untraced
    remotes.
    """
    fields = dict(document)
    fields["handled"] = tuple(fields.get("handled", ()))
    if not fields.get("trace_id"):
        fields["trace_id"] = trace_id
    return ExchangeOutcome(**fields)


class Federation:
    """N administrative domains on one sim engine, fully cross-wired."""

    def __init__(
        self,
        world: World,
        name: str = "federation",
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        link: LinkSpec = WAN_LINK,
        gateway_retry_s: float = 0.5,
        gateway_attempts: int = 4,
        gateway_backoff: float = 2.0,
        shadow_period_s: float = 30.0,
        resilience: bool = True,
        breaker_threshold: int = 4,
        breaker_cooldown_s: float = 30.0,
        shed_limit: int | None = None,
        default_deadline_s: float | None = None,
        shards: int | None = None,
        mediation: bool = False,
    ) -> None:
        self.world = world
        self.name = name
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._env_metrics = metrics
        self._tracer = tracer
        #: the federation's own span handle (never None; NULL_TRACER no-ops)
        self._trace: Tracer = tracer if tracer is not None else NULL_TRACER
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._link = link
        self._gateway_retry_s = gateway_retry_s
        self._gateway_attempts = gateway_attempts
        self._gateway_backoff = gateway_backoff
        self._shadow_period_s = shadow_period_s
        #: resilience=False reverts to bare retry gateways: no breakers,
        #: no failover routing (the bench's "retry-only" baseline)
        self._resilience = resilience
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._shed_limit = shed_limit
        self._default_deadline_s = default_deadline_s
        self._shards = shards
        #: mediation=True builds every domain with_mediation(): relayed
        #: exchanges then carry the origin's synthesized plan metadata
        self._mediation = mediation
        self._health: HealthMonitor | None = None
        self._health_timeout_s = 1.0
        self._domains: dict[str, Domain] = {}
        #: memoised person -> home-domain name (resolved via federated
        #: naming on miss; invalidated by add/move)
        self._home_cache: dict[str, str] = {}
        #: freshness token for home resolution, bumped by add/move —
        #: ``federated_exchange_many`` watches it so a delivery callback
        #: that re-homes someone mid-batch forces the already-resolved
        #: routes of the remaining items to be re-derived (the federated
        #: counterpart of the resolution cache's ``generation``)
        self._home_generation = 0
        self._binding_factory = BindingFactory(world.network)
        #: (consumer, master) -> shadowing agreement (created unstarted)
        self.shadowing: dict[tuple[str, str], ShadowingAgreement] = {}
        self._shadowing_started = False
        #: adaptive control plane (attached via :meth:`attach_control`)
        self.control: "ControlPlane | None" = None

    @classmethod
    def partition(
        cls,
        world: World,
        assignment: dict[str, list[str]],
        name: str = "federation",
        **options: Any,
    ) -> "Federation":
        """Partition a world's population across domains in one call.

        *assignment* maps domain name -> the person ids homed there;
        extra keyword options go to the constructor.  Policies between
        all domain pairs are opened for messages and service imports
        (tighten afterwards with :meth:`declare_policy`).
        """
        federation = cls(world, name=name, **options)
        for domain_name in assignment:
            federation.add_domain(domain_name)
        federation.open_policies()
        for domain_name, people in assignment.items():
            for person_id in people:
                federation.add_person(person_id, domain_name)
        return federation

    # -- topology ----------------------------------------------------------
    def add_domain(self, name: str) -> Domain:
        """Create a domain and wire it to every existing domain."""
        if name in self._domains:
            raise ConfigurationError(f"domain {name!r} already exists in {self.name!r}")
        domain = Domain(
            self.world,
            name,
            metrics=self._env_metrics,
            tracer=self._tracer,
            events=self._events if self._events.enabled else None,
            shed_limit=self._shed_limit,
            default_deadline_s=self._default_deadline_s,
            shards=self._shards,
            mediation=self._mediation,
        )
        domain.gateway_rpc.serve(
            "relay", lambda payload, d=domain: self._handle_relay(d, payload)
        )
        domain.gateway_rpc.serve(
            "ping", lambda body, d=domain: {"domain": d.name, "at": self.world.now}
        )
        self._binding_factory.register_capsule(domain.capsule)
        # Every KB knows every organisation, so org/policy verdicts agree
        # at both ends of a relay (the KB-level shadowing contract).
        domain.env.knowledge_base.add_organisation(Organisation(name, name.upper()))
        for peer in self._domains.values():
            domain.env.knowledge_base.add_organisation(
                Organisation(peer.name, peer.name.upper())
            )
            peer.env.knowledge_base.add_organisation(Organisation(name, name.upper()))
            for person_id in peer.people:
                person = peer.env.knowledge_base.find_person(person_id)
                domain.env.knowledge_base.add_person(
                    Person(person_id, person.name, peer.name)
                )
            self._wire_pair(domain, peer)
        self._domains[name] = domain
        if self._metrics.enabled:
            self._metrics.set_gauge("env.federation.domains", len(self._domains))
        return domain

    def _wire_pair(self, a: Domain, b: Domain) -> None:
        """Symmetric wiring between two domains (naming, trade, mail,
        directory shadowing, gateway link + relays)."""
        a.naming.federate(b.naming)
        b.naming.federate(a.naming)
        a.trader.link(b.trader, link_name=b.name)
        b.trader.link(a.trader, link_name=a.name)
        a.mta.add_peer(b.mta.name, b.node)
        b.mta.add_peer(a.mta.name, a.node)
        a.mta.routing.add_route("*", "*", b.name, b.mta.name)
        b.mta.routing.add_route("*", "*", a.name, a.mta.name)
        self.world.network.set_link(a.node, b.node, self._link)
        for source, target in ((a, b), (b, a)):
            source.gateways[target.name] = Gateway(
                source.gateway_rpc,
                source.name,
                target.name,
                target.node,
                retry_s=self._gateway_retry_s,
                max_attempts=self._gateway_attempts,
                backoff=self._gateway_backoff,
                metrics=self._env_metrics,
                breaker=self._make_breaker(f"gw:{source.name}->{target.name}"),
                tracer=self._tracer,
                events=self._events if self._events.enabled else None,
            )
            self.shadowing[(source.name, target.name)] = ShadowingAgreement(
                self.world,
                self._binding_factory,
                source.dsa,
                source.node,
                target.directory_ref,
                period_s=self._shadow_period_s,
                metrics=self._env_metrics,
                breaker=self._make_breaker(
                    f"shadow:{source.name}<-{target.name}"
                ),
                events=self._events if self._events.enabled else None,
            )
            if self._health is not None:
                self._watch_pair(source, target)

    def _make_breaker(self, name: str) -> CircuitBreaker | None:
        """A circuit breaker for one directed dependency (None when the
        federation runs in retry-only mode)."""
        if not self._resilience:
            return None
        return CircuitBreaker(
            self.world.engine,
            name=name,
            failure_threshold=self._breaker_threshold,
            cooldown_s=self._breaker_cooldown_s,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
        )

    def domain(self, name: str) -> Domain:
        """Look up a domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise UnknownObjectError(f"unknown domain {name!r}") from None

    def domains(self) -> list[Domain]:
        """All domains, in creation order."""
        return list(self._domains.values())

    def set_pair_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Override the (symmetric) inter-domain link for one pair."""
        self.world.network.set_link(self.domain(a).node, self.domain(b).node, link)

    # -- directory shadowing ------------------------------------------------
    def publish_directories(self) -> int:
        """Publish each domain's KB into its own DSA; return entries created."""
        return sum(
            d.env.knowledge_base.publish_to_directory(d.dsa.dit)
            for d in self._domains.values()
        )

    def start_shadowing(self) -> None:
        """Arm every DSA shadowing agreement (periodic pulls begin).

        Started agreements keep the engine's queue non-empty; prefer
        ``world.run_for`` over ``world.run`` while they are live.
        """
        if self._shadowing_started:
            return
        for agreement in self.shadowing.values():
            agreement.start()
        self._shadowing_started = True

    def stop_shadowing(self) -> None:
        """Stop every shadowing agreement's periodic pulls."""
        for agreement in self.shadowing.values():
            agreement.stop()
        self._shadowing_started = False

    # -- gateway health checks ----------------------------------------------
    def start_health_checks(
        self, period_s: float = 5.0, timeout_s: float = 1.0
    ) -> HealthMonitor:
        """Probe every directed gateway link periodically (opt-in).

        Each probe is a tiny ``ping`` RPC from the source domain's
        gateway node to the target's; outcomes feed the pair's circuit
        breaker, so a dead link is discovered (breaker tripped, failover
        engaged) and its recovery noticed (breaker reclosed) without a
        real relay having to burn its retry budget first.  Like
        shadowing, running probes keep the engine queue non-empty —
        prefer ``world.run_for`` over ``world.run`` while they are live.
        """
        if self._health is not None:
            return self._health
        self._health = HealthMonitor(
            self.world.engine,
            period_s=period_s,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
        )
        self._health_timeout_s = timeout_s
        domains = list(self._domains.values())
        for source in domains:
            for target in domains:
                if source is not target:
                    self._watch_pair(source, target)
        return self._health

    def stop_health_checks(self) -> None:
        """Stop all gateway health probes."""
        if self._health is not None:
            self._health.stop()
            self._health = None

    def _watch_pair(self, source: Domain, target: Domain) -> None:
        """Register the directed health probe source -> target."""
        assert self._health is not None

        def probe(
            report: Any, source: Domain = source, target: Domain = target
        ) -> None:
            source.gateway_rpc.request(
                target.node,
                "ping",
                {},
                on_reply=lambda reply: report(
                    not (isinstance(reply, dict) and "error" in reply)
                ),
                timeout_s=self._health_timeout_s,
                on_timeout=lambda: report(False),
                size_bytes=32,
            )

        self._health.watch(
            f"{source.name}->{target.name}",
            probe,
            breaker=source.gateways[target.name].breaker,
        )

    # -- policies and applications -----------------------------------------
    def declare_policy(
        self, org_a: str, org_b: str, interactions: set[str], symmetric: bool = True
    ) -> None:
        """Declare an inter-org policy in every domain's knowledge base."""
        for domain in self._domains.values():
            domain.env.knowledge_base.policies.declare(
                org_a, org_b, set(interactions), symmetric=symmetric
            )

    def open_policies(self) -> None:
        """Open every domain pair for every interaction (demo/bench default)."""
        names = list(self._domains)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.declare_policy(a, b, {"*"})

    def register_application(
        self,
        descriptor: AppDescriptor,
        on_deliver: DeliveryCallback,
        exporter_org: str = "",
    ) -> None:
        """Register one application in every domain environment.

        Federation keeps the paper's O(N) integration cost: one
        descriptor + converter serves all domains (the delivery callback
        receives deliveries from whichever domain the receiver lives in).
        """
        for domain in self._domains.values():
            domain.env.register_application(descriptor, on_deliver, exporter_org)

    def create_shared_activity(
        self, activity_id: str, name: str, members: dict[str, str] | None = None
    ) -> None:
        """Create one activity, visible (with its members) in every domain."""
        for domain in self._domains.values():
            domain.env.create_activity(activity_id, name, dict(members or {}))

    # -- people ------------------------------------------------------------
    def add_person(self, person_id: str, domain_name: str, name: str = "") -> Person:
        """Home a person in *domain_name*; known to every domain's KB.

        The person gets a workstation node and communicator in the home
        domain, a mailbox at the home MTA, and a federated-naming binding
        ``people/<id>`` in the home naming domain.
        """
        home = self.domain(domain_name)
        display = name or person_id
        person = Person(person_id, display, domain_name)
        for domain in self._domains.values():
            domain.env.knowledge_base.add_person(Person(person_id, display, domain_name))
        workstation = home.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=domain_name)
        home.env.register_person(Communicator(person_id, workstation))
        home.mta.register_mailbox(home.or_name(person_id))
        home.naming.bind(
            f"people/{person_id}",
            InterfaceRef(workstation, person_id, "communicator"),
        )
        home.people.add(person_id)
        self._home_cache[person_id] = domain_name
        self._home_generation += 1
        return person

    def home_of(self, person_id: str) -> str:
        """The name of a person's home domain, via federated naming.

        The lookup is memoised; :meth:`add_person` and :meth:`move_person`
        invalidate the memo so a moved person's very next exchange routes
        to their new home.
        """
        cached = self._home_cache.get(person_id)
        if cached is not None:
            if self._metrics.enabled:
                self._metrics.inc("env.federation.home.hit")
            return cached
        if self._metrics.enabled:
            self._metrics.inc("env.federation.home.miss")
        domains = list(self._domains.values())
        if not domains:
            raise UnknownObjectError(f"federation {self.name!r} has no domains")
        viewpoint = domains[0].naming
        path = f"people/{person_id}"
        try:
            viewpoint.resolve(path)
            self._home_cache[person_id] = domains[0].name
            return domains[0].name
        except NameError_:
            pass
        for other in viewpoint.federated_domains():
            try:
                viewpoint.resolve(f"{other}:/{path}")
            except NameError_:
                continue
            self._home_cache[person_id] = other
            return other
        raise UnknownObjectError(
            f"person {person_id!r} is not homed in any domain of {self.name!r}"
        )

    def move_person(self, person_id: str, to_domain: str) -> Person:
        """Move a person's home to another domain mid-run.

        Every domain's knowledge base performs the move (firing its KB
        listeners, so each environment's resolution cache drops its
        memoised verdicts), the communicator and naming binding migrate,
        and the federation's home memo is invalidated — the next
        federated exchange resolves against the new home.  Deliveries
        queued at the old home for the person's return are discarded.
        """
        old_name = self.home_of(person_id)
        if old_name == to_domain:
            return self._domains[old_name].env.knowledge_base.find_person(person_id)
        old = self.domain(old_name)
        new = self.domain(to_domain)
        moved: Person | None = None
        for domain in self._domains.values():
            moved = domain.env.knowledge_base.move_person(person_id, to_domain)
        old.env.deregister_person(person_id)
        old.naming.unbind(f"people/{person_id}")
        old.people.discard(person_id)
        workstation = new.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=to_domain)
        new.env.register_person(Communicator(person_id, workstation))
        new.mta.register_mailbox(new.or_name(person_id))
        new.naming.bind(
            f"people/{person_id}", InterfaceRef(workstation, person_id, "communicator")
        )
        new.people.add(person_id)
        self._home_cache.pop(person_id, None)
        self._home_cache[person_id] = to_domain
        self._home_generation += 1
        if self._metrics.enabled:
            self._metrics.inc("env.federation.moves")
        assert moved is not None
        return moved

    # -- the federated exchange path ---------------------------------------
    def federated_exchange(
        self, request: ExchangeRequest | None = None, /, *args: Any, **kwargs: Any
    ) -> FederatedOutcome:
        """Deliver one :class:`ExchangeRequest` across the federation.

        The request object is the single call currency shared with
        :meth:`CSCWEnvironment.exchange`; the legacy keyword form
        (``federated_exchange(sender, receiver, sender_app, ...)``)
        remains available through :meth:`ExchangeRequest.from_call`.

        A federated exchange is a batch of one: it runs the pipeline of
        :meth:`federated_exchange_many`.  Intra-domain exchanges run the
        home environment's pipeline.  Cross-domain exchanges are admitted
        at the origin (activity membership, organisation/policy — the
        environment's own admission, so the same checks in the same
        order with the same reason codes as
        :meth:`CSCWEnvironment.exchange`), relay the payload through the
        origin's gateway, and re-enter the *target* environment's
        pipeline, so view/time/activity handling and all remaining
        failure modes are decided exactly as at home.  A relay that
        exhausts its gateway attempts returns a
        :data:`REASON_GATEWAY_DEAD_LETTER` outcome and parks the payload
        in the gateway's dead-letter queue.

        When the direct gateway's circuit breaker is open, the relay
        fails over through a healthy intermediate domain (when one
        exists): the intermediate's inbound handler forwards the payload
        onward and the outcome comes back field-identical, with the
        extra ``relay`` hops recorded in :attr:`FederatedOutcome.hops`.

        *deadline* (absolute simulated time) rides along the whole
        path — gateway hops, forwarding, the target pipeline — and an
        exchange that cannot settle before it fails with
        :data:`~repro.environment.environment.REASON_DEADLINE_EXCEEDED`.

        The call is synchronous on simulated time: for cross-domain
        exchanges the engine is stepped until the relay resolves, so the
        returned outcome's latency is the simulated round trip.

        With a tracer attached the whole operation runs under one
        ``federation.exchange`` root span whose context rides the relay
        payloads: gateway hops, failover intermediates and the target
        pipeline all continue the *same* trace, and the returned
        outcome's ``trace_id`` is that root's trace id.
        """
        request = ExchangeRequest.from_call(request, args, kwargs)
        with self._trace.span(
            "federation.exchange", sender=request.sender, receiver=request.receiver
        ) as span:
            # a lone request needs no re-route rounds: only a delivery
            # earlier in the same batch can re-home its receiver
            outcomes: list[FederatedOutcome | None] = [None]
            self._exchange_batch([request], (0,), outcomes)
            result: FederatedOutcome = outcomes[0]  # type: ignore[assignment]
            span.tag(
                delivered=result.delivered,
                target=result.target,
                reason_code=result.reason_code,
            )
            return result

    def federated_exchange_many(
        self, requests: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Deliver a batch of requests; outcomes in request order.

        Consecutive requests that resolve to the same (origin, target)
        domain pair form a *run*, the federated counterpart of a run of
        :meth:`CSCWEnvironment.exchange_many`.  Intra-domain runs go
        through the home environment's pipeline (one call per run, with
        the federation's own deadline accounting and hop metadata);
        cross-domain runs ship as **one** gateway relay carrying the
        whole run (one payload, one round trip, one dedup id), and the
        target feeds it into its own pipeline.  :meth:`federated_exchange`
        is this on a batch of one.

        Each request resolves its route **once** (two home lookups), and
        the hoisted routes never serve stale homes: the batch watches
        the federation's home ``generation`` token, so a delivery
        callback that re-homes a person mid-batch re-routes the
        remaining items — an item that failed ``unknown-receiver`` under
        a route its own run invalidated is re-dispatched against the
        fresh home (re-dispatched items count
        ``env.federation.exchanges`` once per attempt).
        """
        if not requests:
            return []
        with self._trace.span("federation.exchange_many", batch=len(requests)):
            return self._dispatch(requests)

    def _dispatch(self, requests: list[ExchangeRequest]) -> list[FederatedOutcome]:
        """Deliver *requests* as same-route runs; outcomes in request order."""
        outcomes: list[FederatedOutcome | None] = [None] * len(requests)
        indices: Sequence[int] = range(len(requests))
        # One re-route round per home change is enough for a single
        # move; the depth bound keeps a pathological callback that
        # re-homes someone on every delivery from looping forever.
        for _ in range(4):
            indices = self._exchange_batch(requests, indices, outcomes)
            if not indices:
                break
        return outcomes  # type: ignore[return-value]

    def _exchange_batch(
        self,
        requests: list[ExchangeRequest],
        indices: Sequence[int],
        outcomes: "list[FederatedOutcome | None]",
    ) -> list[int]:
        """Dispatch *indices* grouped into same-route runs; fill
        *outcomes* in place and return the indices that must be
        re-dispatched because their dispatch re-homed their route."""
        rerouted: list[int] = []
        run: list[int] = []
        run_requests: list[ExchangeRequest] = []
        run_route: tuple[str, str] | None = None
        for index in indices:
            request = requests[index]
            route = self._route_of(request)
            if run and route != run_route:
                generation = self._home_generation
                self._dispatch_run(run_route, run, run_requests, outcomes, rerouted)
                run = []
                run_requests = []
                if self._home_generation != generation:
                    # The dispatch's delivery callbacks moved someone;
                    # this request's route (resolved before the
                    # dispatch) may be stale — re-derive it.
                    route = self._route_of(request)
            run_route = route
            run.append(index)
            run_requests.append(request)
        if run:
            self._dispatch_run(run_route, run, run_requests, outcomes, rerouted)
        return rerouted

    def _dispatch_run(
        self,
        route: tuple[str, str] | None,
        indices: list[int],
        run: list[ExchangeRequest],
        outcomes: "list[FederatedOutcome | None]",
        rerouted: list[int],
    ) -> None:
        """Deliver one same-route run — intra-domain through the home
        environment, cross-domain as one gateway relay — and detect
        mid-run re-homing.

        When the run's own delivery callbacks bumped the home
        generation, items that failed ``unknown-receiver`` under the
        dispatched route and now resolve to a *different* route were
        victims of the stale hoisting (a move deregisters the person
        from the old home, so the stale attempt fails without side
        effects) — their indices go to *rerouted* for a fresh dispatch,
        exactly as per-item calls resolving at their own turn would
        behave.
        """
        generation = self._home_generation
        if route is None:
            results = [self._unroutable(request) for request in run]
        else:
            if self._metrics.enabled:
                self._metrics.inc("env.federation.exchanges", len(run))
            origin = self.domain(route[0])
            if route[0] == route[1]:
                results = self._local_exchange_run(origin, run)
            else:
                results = self._relay_exchange_group(origin, self.domain(route[1]), run)
        for index, result in zip(indices, results):
            outcomes[index] = result
        if route is None or self._home_generation == generation:
            return
        for index, request, result in zip(indices, run, results):
            if (
                result.delivered
                or result.outcome.reason_code != REASON_UNKNOWN_RECEIVER
            ):
                continue
            fresh = self._route_of(request)
            if fresh is not None and fresh != route:
                rerouted.append(index)

    def _route_of(self, request: ExchangeRequest) -> tuple[str, str] | None:
        """(origin, target) for a request, or None when unresolvable
        (:meth:`_unroutable` then reports the precise failure)."""
        try:
            return (self.home_of(request.sender), self.home_of(request.receiver))
        except UnknownObjectError:
            return None

    def _unroutable(self, request: ExchangeRequest) -> FederatedOutcome:
        """A request whose sender or receiver has no home domain.

        An unknown sender raises :class:`UnknownObjectError`.  An unknown
        receiver fails ``unknown-receiver`` at the origin, after the
        deadline check and before any translation (there is no target
        format to translate to).
        """
        obs = self._metrics
        if obs.enabled:
            obs.inc("env.federation.exchanges")
        origin = self.domain(self.home_of(request.sender))
        now = self.world.now
        expires_at = origin.env.effective_deadline(request.deadline)
        if expires_at is not None and now >= expires_at:
            if obs.enabled:
                obs.inc("env.federation.expired")
            code, reason = REASON_DEADLINE_EXCEEDED, deadline_reason(expires_at, now)
        else:
            if obs.enabled:
                obs.inc("env.federation.unknown_receiver")
            code = REASON_UNKNOWN_RECEIVER
            reason = unknown_receiver_reason(request.receiver)
        return self._refused(origin, "", code, reason, (Hop(origin.name, "local", now),))

    def _refused(
        self,
        origin: Domain,
        target: str,
        code: str,
        reason: str,
        hops: tuple[Hop, ...],
        attempts: int = 1,
        latency_s: float = 0.0,
    ) -> FederatedOutcome:
        """An exchange the federation failed on the origin's behalf,
        counted by the origin environment."""
        return FederatedOutcome(
            outcome=origin.env._fail(code, reason),
            origin=origin.name,
            target=target,
            hops=hops,
            attempts=attempts,
            latency_s=latency_s,
        )

    def _local_exchange_run(
        self, origin: Domain, run: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Run an intra-domain run through the home environment's pipeline.

        The federation does its own accounting first: already-expired
        requests fail at the federation (``env.federation.expired``, no
        target), and every outcome carries the ``local`` hop.  A run of
        one enters through ``env.exchange``, a longer run through one
        ``env.exchange_many`` call.
        """
        obs = self._metrics
        env = origin.env
        started = self.world.now
        results: list[FederatedOutcome | None] = [None] * len(run)
        shipped_indices: list[int] = []
        shipped: list[ExchangeRequest] = []
        for index, request in enumerate(run):
            expires_at = env.effective_deadline(request.deadline)
            if expires_at is not None and started >= expires_at:
                if obs.enabled:
                    obs.inc("env.federation.expired")
                results[index] = self._refused(
                    origin,
                    "",
                    REASON_DEADLINE_EXCEEDED,
                    deadline_reason(expires_at, started),
                    (Hop(origin.name, "local", started),),
                )
                continue
            shipped_indices.append(index)
            shipped.append(
                request
                if request.deadline == expires_at
                else replace(request, deadline=expires_at)
            )
        if shipped:
            if obs.enabled:
                obs.inc("env.federation.local", len(shipped))
            if len(shipped) == 1:
                exchange_outcomes = [env.exchange(shipped[0])]
            else:
                exchange_outcomes = env.exchange_many(shipped)
            now = self.world.now
            hops = (Hop(origin.name, "local", now),)
            latency = now - started
            for index, outcome in zip(shipped_indices, exchange_outcomes):
                results[index] = FederatedOutcome(
                    outcome=outcome,
                    origin=origin.name,
                    target=origin.name,
                    hops=hops,
                    latency_s=latency,
                )
        return results  # type: ignore[return-value]

    def _mediation_metadata(

        self, origin: Domain, request: ExchangeRequest
    ) -> "dict[str, Any] | None":
        """The origin mediator's plan for a relayed exchange, as envelope
        metadata.

        When the origin domain runs mediated (``mediation=True``), the
        plan the target's pipeline will effectively execute is
        synthesized here first and stamped on the relay envelope — the
        receiving side counts it (``mediation.plan.relayed``) and tags
        its relay span, so operators see mediated routes and expected
        fidelity on the wire without re-deriving them.  Returns ``None``
        for unmediated domains, same-format pairs, unknown apps and
        unplannable routes (the target pipeline remains authoritative
        and will fail those its own way).
        """
        mediator = origin.env.mediator
        if mediator is None:
            return None
        try:
            source, target = origin.env.resolution.formats(
                request.sender_app, request.receiver_app
            )
        except NotRegisteredError:
            return None
        if source == target:
            return None
        try:
            plan = mediator.negotiate(source, target, request.min_fidelity)
        except InteropError:
            return None
        return plan.to_document()

    def _relay_exchange_group(
        self, origin: Domain, target: Domain, run: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Relay one same-route run as a single gateway round trip.

        Expired deadlines and the origin's admission (membership,
        organisation/policy) are decided per request before shipping.
        The survivors travel as one payload — the flat request document
        for a run of one, ``{"requests": [...]}`` for more — that the
        target's relay handler feeds into its environment's pipeline.
        One relay id covers the run, so retries deduplicate the whole
        run at once.
        """
        obs = self._metrics
        env = origin.env
        started = self.world.now
        origin_hop = Hop(origin.name, "origin", started)
        results: list[FederatedOutcome | None] = [None] * len(run)
        shipped: list[int] = []
        documents: list[dict[str, Any]] = []
        expiries: list[float | None] = []
        previous: ExchangeRequest | None = None
        remote = 0
        for index, request in enumerate(run):
            expires_at = env.effective_deadline(request.deadline)
            if expires_at is not None and started >= expires_at:
                if obs.enabled:
                    obs.inc("env.federation.expired")
                refusal = (REASON_DEADLINE_EXCEEDED, deadline_reason(expires_at, started))
            else:
                remote += 1
                active = request.profile if request.profile is not None else _ALL_ON
                refusal = env._admit(request, active, at_origin=True)
            if refusal is not None:
                results[index] = self._refused(
                    origin, target.name, *refusal, (origin_hop,)
                )
                continue
            # Consecutive requests that differ only in their document
            # share one envelope: the previous wire form (with the origin
            # mediator's plan) seeds the next, instead of re-deriving
            # ``to_document`` and the plan per relay entry.
            if previous is not None and request.same_route(previous):
                document = dict(documents[-1])
            else:
                document = request.to_document()
                mediation = self._mediation_metadata(origin, request)
                if mediation is not None:
                    document["mediation"] = mediation
            document["document"] = dict(request.document)
            document["deadline"] = expires_at
            documents.append(document)
            shipped.append(index)
            expiries.append(expires_at)
            previous = request
        if obs.enabled and remote:
            obs.inc("env.federation.remote", remote)
        if not shipped:
            return results  # type: ignore[return-value]
        # The gateway-level deadline only applies when every shipped
        # request carries one (the loosest wins; per-request deadlines
        # are still enforced by the target pipeline).
        group_deadline = None if None in expiries else max(expiries)
        payload = documents[0] if len(documents) == 1 else {"requests": documents}
        # The origin's span identity rides the payload: every hop
        # (gateway, forwarder, target pipeline) continues this trace.
        payload["origin"] = origin.name
        context = self._trace.current_context()
        if context is not None:
            payload[TRACE_KEY] = context.to_document()
        gateway = origin.gateway_to(target.name)
        if self._resilience and not gateway.ready():
            # The direct gateway is not ready (breaker open or a
            # control-plane drain): route via a healthy intermediate,
            # whose inbound relay handler forwards the payload onward.
            via = self._pick_intermediate(origin, target)
            if via is not None:
                if obs.enabled:
                    obs.inc("env.federation.failover")
                gateway = origin.gateway_to(via.name)
                payload["final_target"] = target.name
        holder: dict[str, Any] = {}

        def on_reply(reply: dict[str, Any], attempts: int) -> None:
            holder["reply"] = reply
            holder["attempts"] = attempts

        def on_dead_letter(letter: DeadLetter) -> None:
            holder["dead_letter"] = letter

        gateway.relay(payload, on_reply, on_dead_letter, deadline=group_deadline)
        # Step the engine until the relay settles (reply or dead letter).
        engine = self.world.engine
        while "reply" not in holder and "dead_letter" not in holder:
            if not engine.step():  # pragma: no cover - timeouts guarantee progress
                raise ConfigurationError(
                    f"relay {origin.name}->{target.name} neither replied nor timed out"
                )
        now = self.world.now
        latency = now - started
        failure: tuple[str, str] | None = None
        if "dead_letter" in holder:
            letter: DeadLetter = holder["dead_letter"]
            attempts = letter.attempts
            hops: tuple[Hop, ...] = (origin_hop,)
            if letter.reason == REASON_RELAY_DEADLINE:
                failure = (
                    REASON_DEADLINE_EXCEEDED,
                    f"relay {origin.name}->{target.name} missed its deadline "
                    f"after {attempts} attempts",
                )
            else:
                failure = (
                    REASON_GATEWAY_DEAD_LETTER,
                    f"gateway {origin.name}->{target.name} unreachable after "
                    f"{attempts} attempts; payload parked in dead-letter queue",
                )
        else:
            reply = holder["reply"]
            relay_path = reply.get("relay_path", ())
            hops = (origin_hop, *(Hop(h["domain"], "relay", h["at"]) for h in relay_path))
            attempts = holder["attempts"] + sum(h.get("attempts", 0) for h in relay_path)
            if "error" in reply:
                failure = (
                    REASON_GATEWAY_DEAD_LETTER,
                    f"relay {origin.name}->{target.name} failed remotely: "
                    f"{reply['error']}",
                )
            elif "failed" in reply:
                # A forwarded leg died downstream; the intermediate
                # reported the structured failure back instead of outcomes.
                failure = (reply["failed"], reply.get("detail", "forwarded relay failed"))
        if failure is not None:
            counter = (
                "env.federation.expired"
                if failure[0] == REASON_DEADLINE_EXCEEDED
                else "env.federation.dead_letters"
            )
            for index in shipped:
                if obs.enabled:
                    obs.inc(counter)
                results[index] = self._refused(
                    origin, target.name, *failure, hops, attempts, latency
                )
            return results  # type: ignore[return-value]
        hops = (
            *hops,
            Hop(target.name, "deliver", reply["handled_at"]),
            Hop(origin.name, "reply", now),
        )
        trace_id = context.trace_id if context is not None else ""
        for index, outcome_document in zip(shipped, reply["outcomes"]):
            outcome = _outcome_from_document(outcome_document, trace_id=trace_id)
            if obs.enabled and outcome.delivered:
                obs.inc("env.federation.delivered")
            results[index] = FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=target.name,
                hops=hops,
                attempts=attempts,
                latency_s=latency,
            )
        if obs.enabled:
            obs.observe("env.federation.relay_latency_s", latency)
        return results  # type: ignore[return-value]

    def _pick_intermediate(self, origin: Domain, target: Domain) -> Domain | None:
        """The first domain (creation order) with both legs healthy.

        A viable intermediate has ready breakers on origin -> via and
        via -> target; ``None`` when no such domain exists (the relay
        then falls through to the direct gateway and fast-fails).
        """
        for via in self._domains.values():
            if via is origin or via is target:
                continue
            first = origin.gateways.get(via.name)
            second = via.gateways.get(target.name)
            if (
                first is not None
                and second is not None
                and first.ready()
                and second.ready()
            ):
                return via
        return None

    def _handle_relay(self, domain: Domain, payload: dict[str, Any]) -> Any:
        """Inbound gateway handler: dedup, forward on, or run the pipeline.

        Gateways are at-least-once on the wire; the ``relay_id`` dedup
        cache makes the processing at-most-once — a retried relay whose
        earlier attempt already got through returns the cached reply
        instead of re-delivering.  A payload whose ``final_target`` is
        another domain arrived here as a failover intermediate and is
        forwarded through this domain's own gateway (the transport holds
        the inbound request open via a deferred reply meanwhile).

        Otherwise the payload carries one run — the flat request document
        or ``{"requests": [...]}`` — which enters this environment's
        pipeline (through ``exchange`` for one request, ``exchange_many``
        for more) and gets one reply.
        """
        relay_id = payload.get("relay_id")
        if relay_id is not None and relay_id in domain.relay_seen:
            if self._metrics.enabled:
                self._metrics.inc("gateway.deduplicated")
            return domain.relay_seen[relay_id]
        final = payload.get("final_target")
        if final is not None and final != domain.name:
            return self._forward_relay(domain, payload, final)
        documents = payload["requests"] if "requests" in payload else [payload]
        requests = list(map(ExchangeRequest.from_document, documents))
        if self._metrics.enabled:
            self._metrics.inc("gateway.inbound", len(requests))
            mediated = 0
            for document in documents:
                mediated += "mediation" in document
            if mediated:
                self._metrics.inc("mediation.plan.relayed", mediated)
        # Continue the trace the payload carries: the target pipeline's
        # span nests under this one, so the outcomes' trace_id is the
        # origin's — the receiving half of propagation.
        with self._trace.span_from_context(
            "federation.relay",
            TraceContext.from_document(payload.get(TRACE_KEY)),
            domain=domain.name,
            batch=len(requests),
        ) as span:
            mediation = documents[0].get("mediation")
            if mediation is not None and span is not None:
                span.tag(
                    mediated_fidelity=mediation.get("fidelity"),
                    mediated_hops=mediation.get("hops"),
                )
            if len(requests) == 1:
                outcomes = [domain.env.exchange(requests[0])]
            else:
                outcomes = domain.env.exchange_many(requests)
        reply = {
            "outcomes": list(map(_outcome_document, outcomes)),
            "handled_at": self.world.now,
            "domain": domain.name,
            "relay_path": [],
        }
        if relay_id is not None:
            domain.remember_relay(relay_id, reply)
        return reply

    def _forward_relay(
        self, domain: Domain, payload: dict[str, Any], final: str
    ) -> DeferredReply:
        """Forward a failover relay from intermediate *domain* to *final*."""
        obs = self._metrics
        if obs.enabled:
            obs.inc("env.federation.forwarded")
        deferred = DeferredReply()
        relay_id = payload.get("relay_id")
        forwarded_at = self.world.now
        if relay_id is not None:
            # Cache the in-flight deferred so a duplicate of the inbound
            # leg latches onto the same forwarding, not a second one.
            domain.remember_relay(relay_id, deferred)
        span: Span | None = None
        if self._trace.enabled:
            # A detached span for the forwarding leg: it stays open
            # across the async relay, and the re-stamped payload parents
            # the next hop under it — breaker-triggered failover paths
            # stay inside the origin's trace.
            span = self._trace.start_span(
                "federation.forward",
                context=TraceContext.from_document(payload.get(TRACE_KEY)),
                via=domain.name,
                final=final,
            )
            payload = dict(payload)
            payload[TRACE_KEY] = TraceContext(
                span.trace_id, span.span_id, span.sampled
            ).to_document()

        def close_span(outcome: str) -> None:
            if span is not None:
                span.tag(outcome=outcome)
                self._trace.finish(span)

        def on_reply(reply: Any, attempts: int) -> None:
            close_span("delivered")
            if isinstance(reply, dict) and "relay_path" in reply:
                reply = dict(reply)
                reply["relay_path"] = [
                    {"domain": domain.name, "at": forwarded_at, "attempts": attempts}
                ] + list(reply["relay_path"])
            if relay_id is not None:
                domain.remember_relay(relay_id, reply)
            deferred.resolve(reply)

        def on_dead_letter(letter: DeadLetter) -> None:
            close_span(letter.reason)
            code = (
                REASON_DEADLINE_EXCEEDED
                if letter.reason == REASON_RELAY_DEADLINE
                else REASON_GATEWAY_DEAD_LETTER
            )
            failure = {
                "failed": code,
                "detail": (
                    f"forwarded relay {domain.name}->{final} failed "
                    f"({letter.reason}) after {letter.attempts} attempts"
                ),
                "relay_path": [
                    {
                        "domain": domain.name,
                        "at": forwarded_at,
                        "attempts": letter.attempts,
                    }
                ],
            }
            if relay_id is not None:
                domain.remember_relay(relay_id, failure)
            deferred.resolve(failure)

        try:
            gateway = domain.gateway_to(final)
        except KeyError:
            close_span("no-gateway")
            deferred.fail(f"no gateway from {domain.name} to {final}")
            return deferred
        gateway.relay(
            dict(payload), on_reply, on_dead_letter, deadline=payload.get("deadline")
        )
        return deferred

    # -- adaptive control ----------------------------------------------------
    def attach_control(
        self,
        policy: "ControlPolicy | None" = None,
        slo: "SLOEngine | None" = None,
    ) -> "ControlPlane":
        """Wire an adaptive :class:`~repro.control.plane.ControlPlane`
        over the whole federation (call after the topology is built).

        Every directed gateway is managed (pre-emptive drain on health
        trend / retry surge, attempt-budget boost under SLO burn), every
        shadowing agreement gets burn-time re-balancing, and every
        domain environment gets burn-time shed tightening.  *slo* (when
        given) feeds its burn alerts into the plane; health trends come
        from :meth:`start_health_checks` when probes are running.  The
        plane is exposed as :attr:`control` and returned unstarted —
        call ``.start()`` to arm the loop.
        """
        from repro.control.plane import ControlPlane

        plane = ControlPlane(
            self.world.engine,
            policy=policy,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
            tracer=self._tracer,
        )
        if slo is not None:
            plane.watch_slo(slo)
        for source in self._domains.values():
            for peer, gateway in sorted(source.gateways.items()):
                plane.manage_gateway(
                    f"{source.name}->{peer}", gateway, health=self._health
                )
        for (consumer, master), agreement in sorted(self.shadowing.items()):
            plane.manage_shadowing(f"shadow:{consumer}<-{master}", agreement)
        for domain in self._domains.values():
            plane.manage_environment(domain.name, domain.env)
        self.control = plane
        return plane

    # -- trading across domains --------------------------------------------
    def import_service(
        self,
        domain_name: str,
        service_type: str,
        constraints: list | None = None,
        preference: str = "first",
        context: Any = None,
    ) -> Any:
        """Import one offer as *domain_name*: local trader first, links after.

        Cross-domain offer lookup rides the trader links wired between
        every pair; each linked trader applies its own organisational
        import policy, so a peer's policy can hide its offers from this
        importer even when the link is up.
        """
        return self.domain(domain_name).trader.import_one(
            service_type, constraints, preference, context
        )

    # -- introspection -----------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """A federation-wide inventory snapshot."""
        inventory: dict[str, Any] = {
            "name": self.name,
            "domains": {name: d.describe() for name, d in self._domains.items()},
            "people": {
                person: home for person, home in sorted(self._home_cache.items())
            },
            "shadowing": {
                f"{consumer}<-{master}": {
                    "pulls": agreement.pulls,
                    "syncs": agreement.syncs,
                    "failed_pulls": agreement.failed_pulls,
                }
                for (consumer, master), agreement in sorted(self.shadowing.items())
            },
        }
        if self._resilience:
            inventory["resilience"] = {
                "breakers": {
                    f"{source}->{peer}": domain.gateways[peer].breaker.stats()
                    for source, domain in sorted(self._domains.items())
                    for peer in sorted(domain.gateways)
                    if domain.gateways[peer].breaker is not None
                },
                "health": None if self._health is None else self._health.stats(),
            }
        if self._metrics.enabled:
            inventory["metrics"] = self._metrics.snapshot()
        return inventory
