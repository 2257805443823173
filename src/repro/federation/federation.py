"""The federation coordinator: N domains, one engine, explicit boundaries.

This module composes the library's single-node primitives —
``NamingDomain.federate``, trader links, directory
:class:`~repro.directory.replication.ShadowingAgreement`, MTAs — into a
running multi-domain CSCW system: the "open distributed system" shape
the paper says open CSCW must take (organisation transparency across
administrative boundaries, not just inside one environment).

A :class:`Federation` owns a set of :class:`~repro.federation.domain.Domain`
objects on one shared :class:`~repro.sim.world.World`.  Every domain
environment reads the federation's one organisational knowledge base,
where each domain is an organisation and a person's home is theirs, and
its one inter-activity model (activity registry and dependency graph),
so org, policy and membership verdicts agree at both ends of a relay.
The domains are wired pairwise:

* **naming** — every domain's :class:`~repro.odp.naming.NamingDomain`
  federates with every peer, so ``people/ana`` resolves from anywhere as
  ``<home>:/people/ana``: the ODP-visible record of a person's home,
  written with every home change (the exchange path reads the KB),
* **trading** — every env trader links to every peer trader, so an
  import that finds no local offer falls back over the links while each
  side's organisational import policy still applies,
* **directory** — each domain's DSA holds a shadowing agreement against
  every peer DSA (created unstarted; :meth:`start_shadowing` arms them),
* **messaging** — MTAs peer and route each other's X.400 domains,
* **gateways** — a directed :class:`~repro.federation.gateway.Gateway`
  per ordered pair relays exchange payloads over a WAN inter-domain
  link (retuned per pair with :meth:`Federation.set_pair_link`).

The headline operation is :meth:`federated_exchange_many` (and
:meth:`federated_exchange`, a batch of one).  One dispatch loop reads
each receiver's home domain from the knowledge base and splits the
batch into same-route runs; one origin stage decides every run, local,
cross-domain or homeless alike, with the origin environment's own code
for its stages of the environment's stage list
(:mod:`repro.environment.environment`).  The survivors enter the home
environment's pipeline, or cross as one gateway round trip into the
target's — so a federated outcome carries exactly the reason codes a
single-domain ``CSCWEnvironment.exchange`` would produce, plus hop
metadata.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.activity.dependencies import DependencyGraph
from repro.activity.model import Activity, ActivityRegistry
from repro.communication.model import Communicator
from repro.environment.environment import (
    _ALL_ON,
    REASON_DEADLINE_EXCEEDED,
    REASON_UNKNOWN_RECEIVER,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
    _Refusal,
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
from repro.obs.metrics import NULL_METRICS, LazyCounter, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.odp.binding import BindingFactory
from repro.odp.objects import InterfaceRef
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import HealthMonitor
from repro.sim.network import LinkSpec, WAN_LINK
from repro.sharding.kb import ShardedKnowledgeBase
from repro.sim.transport import DeferredReply, remember_reply
from repro.sim.world import World
from repro.util.errors import (
    ConfigurationError,
    InteropError,
    NotRegisteredError,
    UnknownObjectError,
)

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.control.plane import ControlPlane
    from repro.obs.slo import SLOEngine

#: a federated exchange whose relay exhausted its gateway attempts
REASON_GATEWAY_DEAD_LETTER = "gateway-dead-letter"

#: each gateway retry waits ``backoff`` times longer than the last
GATEWAY_BACKOFF = 2.0
#: how often a DSA pulls its peers' published entries
SHADOW_PERIOD_S = 30.0
#: consecutive failures that open a gateway/shadowing circuit breaker
BREAKER_THRESHOLD = 4
#: how long an open breaker waits before a half-open probe
BREAKER_COOLDOWN_S = 30.0
#: how long a gateway health ping waits for its reply before it fails
HEALTH_TIMEOUT_S = 0.5


class Hop(NamedTuple):
    """One step in a federated exchange's path, stamped in simulated time
    (a named tuple: every exchange builds one to three, at C speed)."""

    domain: str
    role: str  # "local" | "origin" | "deliver" | "reply"
    time: float


class _Relayed(dict):
    """A relayed run: its wire form, and its requests beside it in process.

    The items are the wire form (the flat request document for a run of
    one, ``{"requests": [...]}`` for more): only the relay's byte charge
    and a dead letter's record.  The target's pipeline runs
    :attr:`requests`; :attr:`size_bytes` is the charge the first gateway
    took and :attr:`deadline` the gateway deadline it relayed under,
    which a failover intermediate both passes on.
    """

    __slots__ = ("requests", "size_bytes", "deadline")

    def park(self) -> None:
        """Point the requests at the wire form's call-time document copies:
        a relay that failed can still be redriven, or a late attempt
        handled, after its caller changed the documents it passed."""
        documents = self["requests"] if "requests" in self else (self,)
        self.requests[:] = [
            replace(request, document=document["document"])
            for request, document in zip(self.requests, documents)
        ]

    def copy(self) -> "_Relayed":
        """A shallow copy that keeps the requests, the charge and the deadline."""
        twin = _Relayed(self)
        twin.requests, twin.size_bytes = self.requests, self.size_bytes
        twin.deadline = self.deadline
        return twin


class FederatedOutcome(NamedTuple):
    """A cross-domain exchange outcome with its hop metadata.

    ``outcome`` is a plain :class:`ExchangeOutcome` with field parity to
    the single-domain exchange path (same reason codes on the same
    failure classes); the federation adds where the exchange ran
    (``origin``/``target``), the hops it took, how many gateway attempts
    the relay needed and the end-to-end simulated latency.  An immutable
    named tuple, like the outcome it carries.
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
        gateway_retry_s: float = 0.5,
        gateway_attempts: int = 4,
        resilience: bool = True,
        shed_limit: int | None = None,
        default_deadline_s: float | None = None,
        shards: int | None = None,
        mediation: bool = False,
    ) -> None:
        self.world = world
        self.name = name
        self._metrics = obs = metrics if metrics is not None else NULL_METRICS
        # per-exchange counters, bound on first use (no zero-valued series)
        self._m_home_hit = LazyCounter(obs, "env.federation.home.hit")
        self._m_home_miss = LazyCounter(obs, "env.federation.home.miss")
        self._m_exchanges = LazyCounter(obs, "env.federation.exchanges")
        self._m_inbound = LazyCounter(obs, "gateway.inbound")
        #: the federation's own span handle (never None; NULL_TRACER no-ops)
        self._trace: Tracer = tracer if tracer is not None else NULL_TRACER
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._gateway_retry_s = gateway_retry_s
        self._gateway_attempts = gateway_attempts
        #: resilience=False reverts to bare retry gateways: no breakers,
        #: no failover routing (the bench's "retry-only" baseline)
        self._resilience = resilience
        #: the one organisational model every domain environment reads
        self.knowledge_base: OrganisationalKnowledgeBase = (
            OrganisationalKnowledgeBase() if shards is None else ShardedKnowledgeBase(shards)
        )
        #: the one inter-activity model every domain environment reads
        self.activities, self.dependencies = ActivityRegistry(), DependencyGraph()
        #: builds every domain's environment; mediation=True makes relayed
        #: exchanges carry the origin's synthesized plan metadata
        self._builder = CSCWEnvironment.builder().with_world(world).with_knowledge_base(
            self.knowledge_base
        ).with_activities(self.activities, self.dependencies).with_shed_limit(
            shed_limit
        ).with_default_deadline(default_deadline_s)
        if mediation:
            self._builder.with_mediation()
        if metrics is not None:
            self._builder.with_metrics(metrics)
        if tracer is not None:
            self._builder.with_tracer(tracer)
        if self._events.enabled:
            self._builder.with_event_log(self._events)
        self._health: HealthMonitor | None = None
        self._domains: dict[str, Domain] = {}
        #: every register_application call, replayed into each later domain
        self._applications: list[tuple[AppDescriptor, DeliveryCallback, str]] = []
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
        """Create a domain, an organisation in the KB, wired to every peer."""
        if name in self._domains:
            raise ConfigurationError(f"domain {name!r} already exists in {self.name!r}")
        domain = Domain(self._builder.with_name(name).build())
        for registration in self._applications:
            domain.env.register_application(*registration)
        domain.gateway_rpc.serve(
            "relay", partial(self._handle_relay, domain)
        )
        domain.gateway_rpc.serve(
            "ping", lambda body, d=domain: {"domain": d.name, "at": self.world.now}
        )
        self._binding_factory.register_capsule(domain.capsule)
        self.knowledge_base.add_organisation(Organisation(name, name.upper()))
        for peer in self._domains.values():
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
        self.world.network.set_link(a.node, b.node, WAN_LINK)
        for source, target in ((a, b), (b, a)):
            source.gateways[target.name] = Gateway(
                source.gateway_rpc,
                source.name,
                target.name,
                target.node,
                retry_s=self._gateway_retry_s,
                max_attempts=self._gateway_attempts,
                backoff=GATEWAY_BACKOFF,
                metrics=self._metrics,
                breaker=self._make_breaker(f"gw:{source.name}->{target.name}"),
                tracer=self._trace,
                events=self._events,
            )
            self.shadowing[(source.name, target.name)] = ShadowingAgreement(
                self.world,
                self._binding_factory,
                source.dsa,
                source.node,
                target.directory_ref,
                period_s=SHADOW_PERIOD_S,
                metrics=self._metrics,
                breaker=self._make_breaker(
                    f"shadow:{source.name}<-{target.name}"
                ),
                events=self._events,
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
            failure_threshold=BREAKER_THRESHOLD,
            cooldown_s=BREAKER_COOLDOWN_S,
            metrics=self._metrics,
            events=self._events,
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
    def start_health_checks(self) -> HealthMonitor:
        """Probe every directed gateway link periodically (opt-in).

        Each probe is a tiny ``ping`` RPC from the source domain's
        gateway node to the target's, sent every
        :data:`~repro.resilience.health.PROBE_PERIOD_S` and failed after
        :data:`HEALTH_TIMEOUT_S` without a reply.  Outcomes feed the
        pair's circuit breaker, so a dead link is discovered (breaker
        tripped, failover engaged) and its recovery noticed (breaker
        reclosed) without a real relay having to burn its retry budget
        first.  Like
        shadowing, running probes keep the engine queue non-empty —
        prefer ``world.run_for`` over ``world.run`` while they are live.
        """
        if self._health is not None:
            return self._health
        self._health = HealthMonitor(
            self.world.engine, metrics=self._metrics, events=self._events
        )
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
                timeout_s=HEALTH_TIMEOUT_S,
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
        """Declare an inter-org policy once, in the federation's knowledge base."""
        self.knowledge_base.policies.declare(
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
        """Register one application in every domain environment, and in
        every domain added later.

        Federation keeps the paper's O(N) integration cost: one
        descriptor + converter serves all domains (the delivery callback
        receives deliveries from whichever domain the receiver lives in).
        """
        for domain in self._domains.values():
            domain.env.register_application(descriptor, on_deliver, exporter_org)
        self._applications.append((descriptor, on_deliver, exporter_org))

    def create_shared_activity(
        self, activity_id: str, name: str, members: dict[str, str] | None = None
    ) -> None:
        """Create one activity, with its members, in the federation's one
        activity registry, which every domain reads."""
        activity = self.activities.create(Activity(activity_id, name))
        for person_id, role in (members or {}).items():
            activity.join(person_id, role)

    # -- people ------------------------------------------------------------
    def add_person(self, person_id: str, domain_name: str, name: str = "") -> Person:
        """Home a new person in *domain_name*, in the one knowledge base.

        The person gets a workstation node and communicator in the home
        domain, a mailbox at the home MTA, and a federated-naming binding
        ``people/<id>`` in the home naming domain.  A person who already
        has a home raises :class:`~repro.util.errors.ConfigurationError`:
        :meth:`move_person` re-homes them.
        """
        home = self.domain(domain_name)
        current = self.knowledge_base.person_index.get(person_id)
        if current is not None:
            raise ConfigurationError(
                f"person {person_id!r} is already homed in {current!r}; "
                f"use move_person to re-home them"
            )
        person = self.knowledge_base.add_person(
            Person(person_id, name or person_id, domain_name)
        )
        workstation = home.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=domain_name)
        home.env.register_person(Communicator(person_id, workstation))
        home.mta.register_mailbox(home.or_name(person_id))
        home.naming.bind(
            f"people/{person_id}",
            InterfaceRef(workstation, person_id, "communicator"),
        )
        self._home_generation += 1
        return person

    def home_of(self, person_id: str) -> str:
        """The name of a person's home domain: their organisation in the KB.

        A person in an organisation that is not a domain (one written
        into the KB directly, inside a domain) is homed in the domain
        whose environment holds their communicator.  Counts
        ``env.federation.home.hit`` for a homed person and ``home.miss``
        (then raises :class:`~repro.util.errors.UnknownObjectError`) for
        anyone else.  A move is seen by the very next call; nothing is
        memoised.
        """
        home = self.knowledge_base.person_index.get(person_id)
        if home is not None and home not in self._domains:
            homes = (name for name, d in self._domains.items() if person_id in d.env.communicators)
            home = next(homes, None)
        if home is not None:
            if self._metrics.enabled:
                self._m_home_hit.inc()
            return home
        if self._metrics.enabled:
            self._m_home_miss.inc()
        raise UnknownObjectError(
            f"person {person_id!r} is not homed in any domain of {self.name!r}"
        )

    def move_person(self, person_id: str, to_domain: str) -> Person:
        """Move a person's home to another domain mid-run.

        The knowledge base moves the person once, and every domain's
        next route reads the new organisation from its index; no
        memoised verdict is dropped.  The communicator and the naming binding
        migrate, and the next federated exchange reads the new home.
        Deliveries queued at the old home for the person's return are
        discarded.
        """
        old_name = self.home_of(person_id)
        if old_name == to_domain:
            return self.knowledge_base.find_person(person_id)
        old = self.domain(old_name)
        new = self.domain(to_domain)
        moved = self.knowledge_base.move_person(person_id, to_domain)
        old.env.deregister_person(person_id)
        old.naming.unbind(f"people/{person_id}")
        workstation = new.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=to_domain)
        new.env.register_person(Communicator(person_id, workstation))
        new.mta.register_mailbox(new.or_name(person_id))
        new.naming.bind(
            f"people/{person_id}", InterfaceRef(workstation, person_id, "communicator")
        )
        self._home_generation += 1
        if self._metrics.enabled:
            self._metrics.inc("env.federation.moves")
        return moved

    # -- the federated exchange path ---------------------------------------
    def federated_exchange(self, request: ExchangeRequest) -> FederatedOutcome:
        """Deliver one :class:`ExchangeRequest` across the federation.

        The request object is the single call currency shared with
        :meth:`CSCWEnvironment.exchange`.

        A federated exchange is a batch of one: it runs the pipeline of
        :meth:`federated_exchange_many`.  Intra-domain exchanges run the
        home environment's pipeline.  Cross-domain exchanges are decided
        by the same stage list (:mod:`repro.environment.environment`):
        the origin decides its stages with the environment's own code,
        relays the payload through its gateway, and the *target*
        environment's pipeline decides the rest, so every reason code is
        the one :meth:`CSCWEnvironment.exchange` would give.  An unknown
        sender raises :class:`~repro.util.errors.UnknownObjectError`.  A
        relay that exhausts its gateway attempts returns a
        :data:`REASON_GATEWAY_DEAD_LETTER` outcome naming the gateway
        whose dead-letter queue holds the payload.

        When the direct gateway's circuit breaker is open, the relay
        fails over through a healthy intermediate domain (when one
        exists): the intermediate's inbound handler forwards the payload
        onward and the outcome comes back field-identical, with the
        extra ``relay`` hops recorded in :attr:`FederatedOutcome.hops`.

        ``request.deadline`` (absolute simulated time) rides along the whole
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
        # a lone request is one run and needs no re-route rounds: only a
        # delivery earlier in the same batch can re-home its receiver
        if not self._trace.enabled:  # no root span to open
            return self._exchange_run(self._route_of(request), (request,))[0]
        with self._trace.span(
            "federation.exchange", sender=request.sender, receiver=request.receiver
        ) as span:
            result = self._exchange_run(self._route_of(request), (request,))[0]
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
        :meth:`CSCWEnvironment.exchange_many`.  Every run, whatever its
        kind, goes through one origin stage: per request the origin
        environment decides the deadline, then ``unknown-receiver`` for a
        receiver with no home domain or, on a cross-domain run, its own
        stages of the stage list.  An intra-domain run's survivors enter
        the home environment's pipeline in one call; a cross-domain
        run's ship as **one** gateway relay carrying the whole run (one
        payload, one round trip, one dedup id), and the target feeds
        them into its own pipeline.  :meth:`federated_exchange` is this
        on a batch of one.

        One dispatch loop runs the batch in at most four rounds.  A
        round resolves the route of each of its requests (two home
        lookups) before its first run: a batch holding an unknown sender
        raises :class:`~repro.util.errors.UnknownObjectError` with
        nothing delivered.  The hoisted routes never serve stale homes:
        the round watches the federation's home ``generation`` token, so
        a delivery callback that re-homes a person mid-batch re-derives
        the remaining routes, and an item that failed ``unknown-receiver``
        under a route with a target that its own run invalidated, and
        that now resolves to a different route with a target, is
        re-dispatched in the next round, as per-item calls resolving at
        their own turn would behave (re-dispatched items count
        ``env.federation.exchanges`` once per attempt).
        """
        if not requests:
            return []
        with self._trace.span("federation.exchange_many", batch=len(requests)):
            return self._dispatch(requests)

    def _dispatch(self, requests: list[ExchangeRequest]) -> list[FederatedOutcome]:
        """The dispatch loop of :meth:`federated_exchange_many`: same-route
        runs in re-routing rounds; outcomes in request order."""
        outcomes: list[FederatedOutcome | None] = [None] * len(requests)
        indices: Sequence[int] = range(len(requests))
        # One re-route round per home change is enough for a single
        # move; the depth bound keeps a pathological callback that
        # re-homes someone on every delivery from looping forever.
        for _ in range(4):
            routes = [self._route_of(requests[index]) for index in indices]
            generation = self._home_generation
            rerouted: list[int] = []
            start = 0
            for end in range(1, len(routes) + 1):
                if end < len(routes) and routes[end] == routes[start]:
                    continue
                route, run = routes[start], indices[start:end]
                results = self._exchange_run(route, [requests[index] for index in run])
                for index, result in zip(run, results):
                    outcomes[index] = result
                if self._home_generation != generation:
                    # A delivery callback moved someone: the stale attempt
                    # of a re-homed receiver failed without side effects
                    # (a move deregisters them from the old home), and the
                    # remaining routes may be stale — re-derive them.
                    generation = self._home_generation
                    for index, result in zip(run, results):
                        if route[1] is None or result.reason_code != REASON_UNKNOWN_RECEIVER:
                            continue
                        fresh = self._route_of(requests[index])
                        if fresh[1] is not None and fresh != route:
                            rerouted.append(index)
                    routes[end:] = [self._route_of(requests[index]) for index in indices[end:]]
                start = end
            indices = rerouted
            if not indices:
                break
        return outcomes  # type: ignore[return-value]

    def _route_of(self, request: ExchangeRequest) -> tuple[str, str | None]:
        """(origin, target) for a request; the target is None when the
        receiver has no home domain (:meth:`_exchange_run` then fails it
        at the origin).  An unknown sender raises
        :class:`UnknownObjectError`."""
        origin = self.home_of(request.sender)
        try:
            return origin, self.home_of(request.receiver)
        except UnknownObjectError:
            return origin, None

    def _exchange_run(
        self, route: tuple[str, str | None], run: Sequence[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """The origin stage: one same-route run's outcomes, in order.

        Per request: the deadline, then ``unknown-receiver`` for a
        receiver with no home domain (no target format to translate to)
        or, on a cross-domain run, the origin's own stages.  A refusal
        carries a ``local`` hop and no target, or on a cross-domain run
        the ``origin`` hop and the target.  The survivors, deadlines
        clamped, enter the home environment's pipeline (``exchange`` for
        one, ``exchange_many`` for more) or cross as one gateway relay.
        """
        obs = self._metrics
        origin = self._domains[route[0]]
        env = origin.env
        target = route[1]
        cross = target is not None and target != origin.name
        engine = self.world.engine
        started = engine.now
        if obs.enabled:
            self._m_exchanges.inc(len(run))
        results: list[FederatedOutcome | None] = [None] * len(run)
        shipped: list[int] = []
        requests: list[ExchangeRequest] = []
        refused_hops: tuple[Hop, ...] = ()
        remote = 0
        for index, request in enumerate(run):
            expires_at, refusal = env._expiry(request, started)
            if refusal is not None:
                if obs.enabled:
                    obs.inc("env.federation.expired")
            elif target is None:
                if obs.enabled:
                    obs.inc("env.federation.unknown_receiver")
                reason = unknown_receiver_reason(request.receiver)
                refusal = _Refusal(REASON_UNKNOWN_RECEIVER, reason)
            elif cross:
                remote += 1
                active = request.profile if request.profile is not None else _ALL_ON
                refusal = env._admit(request, active, at_origin=True)
            if refusal is None:
                shipped.append(index)
                same = request.deadline == expires_at
                requests.append(request if same else replace(request, deadline=expires_at))
                continue
            if not refused_hops:
                refused_hops = (Hop(origin.name, "origin" if cross else "local", started),)
            results[index] = self._refused(origin, target if cross else "", refusal, refused_hops)
        if obs.enabled and remote:
            obs.inc("env.federation.remote", remote)
        if not requests:
            return results  # type: ignore[return-value]
        if cross:
            settled = self._relay_exchange_group(origin, self._domains[target], requests, started)
        else:
            if obs.enabled:
                obs.inc("env.federation.local", len(requests))
            outcomes = (
                (env.exchange(requests[0]),) if len(requests) == 1 else env.exchange_many(requests)
            )
            now = engine.now
            hops = (Hop(origin.name, "local", now),)
            latency = now - started
            settled = [
                FederatedOutcome(outcome, origin.name, origin.name, hops, 1, latency)
                for outcome in outcomes
            ]
        for index, result in zip(shipped, settled):
            results[index] = result
        return results  # type: ignore[return-value]

    def _refused(
        self, origin: Domain, target: str, refusal: _Refusal, hops: tuple[Hop, ...],
        attempts: int = 1, latency_s: float = 0.0,
    ) -> FederatedOutcome:
        """An exchange the federation failed on the origin's behalf,
        counted by the origin environment."""
        return FederatedOutcome(
            origin.env._fail(refusal), origin.name, target, hops, attempts, latency_s
        )

    def _mediation_metadata(
        self, origin: Domain, request: ExchangeRequest
    ) -> "dict[str, Any] | None":
        """The origin mediator's plan for a relayed exchange, as envelope
        metadata.

        For an origin domain that runs mediated (``mediation=True``), the
        plan the target's pipeline will effectively execute is
        synthesized here first and stamped on the relay envelope — the
        receiving side counts it (``mediation.plan.relayed``) and tags
        its relay span, so operators see mediated routes and expected
        fidelity on the wire without re-deriving them.  Returns ``None``
        for same-format pairs, unknown apps and unplannable routes (the
        target pipeline remains authoritative and will fail those its
        own way).
        """
        mediator = origin.env.mediator
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
        self, origin: Domain, target: Domain, requests: list[ExchangeRequest], started: float
    ) -> list[FederatedOutcome]:
        """Relay the requests a run's origin stage admitted as a single
        gateway round trip; their outcomes, in order.

        The requests, deadlines clamped at the origin, cross to the
        target in process, and its relay handler feeds them into its
        environment's pipeline as they are.  Beside them travels their
        wire form (:class:`_Relayed`), holding the one copy of each
        document, taken at call time: the gateway charges it to the
        link, a dead letter keeps it, and a relay that fails points its
        requests at those copies.  One relay id covers the run, so
        retries deduplicate the whole run at once.
        """
        obs = self._metrics
        engine = self.world.engine
        documents: list[dict[str, Any]] = []
        previous: ExchangeRequest | None = None
        for request in requests:
            # Consecutive requests that differ only in their document
            # share one envelope: the previous wire form (with the origin
            # mediator's plan) seeds the next, instead of re-deriving
            # ``to_document`` and the plan per relay entry.
            if previous is not None and request.same_route(previous):
                document = dict(documents[-1])
            else:
                document = request.to_document()
                if origin.env.mediator is not None:
                    mediation = self._mediation_metadata(origin, request)
                    if mediation is not None:
                        document["mediation"] = mediation
            document["document"] = dict(request.document)
            documents.append(document)
            previous = request
        payload = _Relayed(documents[0] if len(documents) == 1 else {"requests": documents})
        payload["origin"] = origin.name
        payload.requests = requests
        # The gateway-level deadline only applies when every shipped
        # request carries one (the loosest wins; per-request deadlines
        # are still enforced by the target pipeline).
        expiries = [request.deadline for request in requests]
        payload.deadline = None if None in expiries else max(expiries)
        gateway = origin.gateways[target.name]
        if self._resilience and not gateway.ready():
            # The direct gateway is not ready (breaker open or a
            # control-plane drain): route via a healthy intermediate,
            # whose inbound relay handler forwards the payload onward.
            via = self._pick_intermediate(origin, target)
            if via is not None:
                if obs.enabled:
                    obs.inc("env.federation.failover")
                gateway = origin.gateways[via.name]
                payload["final_target"] = target.name
        # The gateway's span continues this call's open span, and every
        # later hop (forwarder, target pipeline) continues the gateway's.
        context = self._trace.current_context()
        settled: list[Any] = []
        payload.size_bytes = gateway.relay(
            payload,
            lambda reply, attempts: settled.append((reply, attempts)),
            settled.append,
            payload.deadline,
        )
        # Step the engine until the relay settles (reply or dead letter).
        step = engine.step
        while not settled:
            if not step():  # pragma: no cover - timeouts guarantee progress
                raise ConfigurationError(
                    f"relay {origin.name}->{target.name} neither replied nor timed out"
                )
        now = engine.now
        latency = now - started
        origin_hop = Hop(origin.name, "origin", started)
        failure: _Refusal | None = None
        relay_hops: list[Hop] = []
        if settled[0].__class__ is DeadLetter:
            letter: DeadLetter = settled[0]
            attempts = letter.attempts
            if letter.reason == REASON_RELAY_DEADLINE:
                failure = _Refusal(
                    REASON_DEADLINE_EXCEEDED,
                    f"relay {origin.name}->{target.name} missed its deadline "
                    f"after {attempts} attempts",
                )
            else:
                # named after the gateway that parked the letter: on a
                # failover that is the leg to the intermediate
                failure = _Refusal(
                    REASON_GATEWAY_DEAD_LETTER,
                    f"gateway {origin.name}->{letter.target} unreachable after "
                    f"{attempts} attempts; payload parked in dead-letter queue",
                )
        else:
            reply, attempts = settled[0]
            for hop in reply.get("relay_path", ()):
                relay_hops.append(Hop(hop["domain"], "relay", hop["at"]))
                attempts += hop["attempts"]
            if "error" in reply:
                failure = _Refusal(
                    REASON_GATEWAY_DEAD_LETTER,
                    f"relay {origin.name}->{target.name} failed remotely: "
                    f"{reply['error']}",
                )
            elif "failed" in reply:
                # A forwarded leg died downstream; the intermediate
                # reported the structured failure back instead of outcomes.
                failure = _Refusal(reply["failed"], reply.get("detail", "forwarded relay failed"))
        if failure is not None:
            payload.park()
            expired = failure.code == REASON_DEADLINE_EXCEEDED
            if obs.enabled:
                counter = "env.federation.expired" if expired else "env.federation.dead_letters"
                obs.inc(counter, len(requests))
            hops: tuple[Hop, ...] = (origin_hop, *relay_hops)
            return [
                self._refused(origin, target.name, failure, hops, attempts, latency)
                for _ in requests
            ]
        deliver_hop = Hop(target.name, "deliver", reply["handled_at"])
        hops = (origin_hop, *relay_hops, deliver_hop, Hop(origin.name, "reply", now))
        # The target's outcomes carry the trace its pipeline ran under;
        # with trace propagation that is the origin's trace, which only
        # fills in for an untraced target.
        trace_id = context.trace_id if context is not None else ""
        results: list[FederatedOutcome] = []
        for outcome in reply["outcomes"]:
            if trace_id and not outcome.trace_id:
                outcome = outcome._replace(trace_id=trace_id)
            if obs.enabled and outcome.delivered:
                obs.inc("env.federation.delivered")
            results.append(FederatedOutcome(
                outcome, origin.name, target.name, hops, attempts, latency
            ))
        if obs.enabled:
            obs.observe("env.federation.relay_latency_s", latency)
        return results

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

    def _handle_relay(self, domain: Domain, payload: _Relayed) -> Any:
        """Inbound gateway handler: dedup, forward on, or run the pipeline.

        Gateways are at-least-once on the wire; the ``relay_id`` dedup
        cache makes the processing at-most-once — a retried relay whose
        earlier attempt already got through returns the cached reply
        instead of re-delivering.  A payload whose ``final_target`` is
        another domain arrived here as a failover intermediate and is
        forwarded through this domain's own gateway (the transport holds
        the inbound request open via a deferred reply meanwhile).

        Otherwise the payload's requests, handed across in process as
        the origin clamped them, enter this environment's pipeline
        (through ``exchange`` for one request, ``exchange_many`` for
        more) and get one reply.  The reply hands the frozen
        :class:`ExchangeOutcome` objects back in process too: the
        transport charges every reply a constant 128 bytes, so its form
        never moves simulated time.
        """
        relay_id = payload["relay_id"]
        if relay_id in domain.relay_seen:
            if self._metrics.enabled:
                self._metrics.inc("gateway.deduplicated")
            return domain.relay_seen[relay_id]
        final = payload.get("final_target")
        if final is not None and final != domain.name:
            return self._forward_relay(domain, payload, final)
        requests = payload.requests
        documents = payload["requests"] if "requests" in payload else (payload,)
        if self._metrics.enabled:
            self._m_inbound.inc(len(requests))
            mediated = sum("mediation" in document for document in documents)
            if mediated:
                self._metrics.inc("mediation.plan.relayed", mediated)
        # Continue the trace the payload carries: the target pipeline's
        # span nests under this one, so the outcomes' trace_id is the
        # origin's — the receiving half of propagation.
        context = (
            TraceContext.from_document(payload.get(TRACE_KEY)) if self._trace.enabled else None
        )
        with self._trace.span_from_context(
            "federation.relay", context, domain=domain.name, batch=len(requests)
        ) as span:
            mediation = documents[0].get("mediation")
            if mediation is not None:
                span.tag(
                    mediated_fidelity=mediation.get("fidelity"),
                    mediated_hops=mediation.get("hops"),
                )
            if len(requests) == 1:
                outcomes = [domain.env.exchange(requests[0])]
            else:
                outcomes = domain.env.exchange_many(requests)
        reply = {"outcomes": outcomes, "handled_at": self.world.engine.now}
        remember_reply(domain.relay_seen, relay_id, reply)
        return reply

    def _forward_relay(
        self, domain: Domain, payload: _Relayed, final: str
    ) -> DeferredReply:
        """Forward a failover relay from intermediate *domain* to *final*,
        charged the wire size, and under the deadline, the first gateway
        took."""
        obs = self._metrics
        if obs.enabled:
            obs.inc("env.federation.forwarded")
        deferred = DeferredReply()
        relay_id = payload["relay_id"]
        forwarded_at = self.world.now
        # Cache the in-flight deferred so a duplicate of the inbound leg
        # latches onto the same forwarding, not a second one.
        remember_reply(domain.relay_seen, relay_id, deferred)
        span: Span | None = None
        # The onward leg gets its own trace stamp: the inbound payload
        # stays as the previous hop sent it.
        payload = payload.copy()
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
            payload[TRACE_KEY] = TraceContext(
                span.trace_id, span.span_id, span.sampled
            ).to_document()

        def close_span(outcome: str) -> None:
            if span is not None:
                span.tag(outcome=outcome)
                self._trace.finish(span)

        def on_reply(reply: Any, attempts: int) -> None:
            close_span("delivered")
            if "error" not in reply:
                hop = {"domain": domain.name, "at": forwarded_at, "attempts": attempts}
                reply = {**reply, "relay_path": [hop, *reply.get("relay_path", ())]}
            remember_reply(domain.relay_seen, relay_id, reply)
            deferred.resolve(reply)

        def on_dead_letter(letter: DeadLetter) -> None:
            close_span(letter.reason)
            payload.park()
            code = (
                REASON_DEADLINE_EXCEEDED
                if letter.reason == REASON_RELAY_DEADLINE
                else REASON_GATEWAY_DEAD_LETTER
            )
            hop = {"domain": domain.name, "at": forwarded_at, "attempts": letter.attempts}
            failure = {
                "failed": code,
                "detail": f"forwarded relay {domain.name}->{final} failed "
                f"({letter.reason}) after {letter.attempts} attempts",
                "relay_path": [hop],
            }
            remember_reply(domain.relay_seen, relay_id, failure)
            deferred.resolve(failure)

        # Every ordered pair of domains has a gateway (``_wire_pair``), and
        # ``final`` is always a federation domain: the lookup cannot miss.
        domain.gateway_to(final).relay(
            payload, on_reply, on_dead_letter,
            deadline=payload.deadline, size_bytes=payload.size_bytes,
        )
        return deferred

    # -- adaptive control ----------------------------------------------------
    def attach_control(self, slo: "SLOEngine | None" = None) -> "ControlPlane":
        """Wire an adaptive :class:`~repro.control.plane.ControlPlane`
        over the whole federation (call after the topology is built).

        Every directed gateway is managed (pre-emptive drain on health
        trend / retry surge, attempt-budget boost under SLO burn), every
        shadowing agreement gets burn-time re-balancing, and every
        domain environment gets burn-time shed tightening.  *slo* (when
        given) feeds its burn alerts into the plane; health trends come
        from :meth:`start_health_checks` when probes are running.  The
        loop's cadence, cool-down and thresholds are the module constants
        of :mod:`repro.control.plane`.  The plane is exposed as
        :attr:`control` and returned unstarted — call ``.start()`` to arm
        the loop.
        """
        from repro.control.plane import ControlPlane

        plane = ControlPlane(
            self.world.engine,
            metrics=self._metrics,
            events=self._events,
            tracer=self._trace,
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
        domains = {name: d.describe() for name, d in self._domains.items()}
        inventory: dict[str, Any] = {
            "name": self.name,
            "domains": domains,
            "people": dict(sorted(
                (person, name)
                for name, snapshot in domains.items()
                for person in snapshot["people"]
            )),
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
