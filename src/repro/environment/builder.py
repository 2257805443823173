"""Fluent construction of the CSCW environment.

``CSCWEnvironment.builder()`` is the recommended construction path: a
small fluent :class:`EnvironmentBuilder` whose knobs inject observability
(metrics registry, tracer) at construction time instead of
monkey-patching them on afterwards::

    env = (CSCWEnvironment.builder()
           .with_world(world)
           .with_name("mocca")
           .with_metrics(MetricsRegistry())
           .with_tracer(Tracer())
           .build())

The builder is the only constructor: :meth:`EnvironmentBuilder.build`
constructs the services, installs the org-KB trading policy on the
trader, binds the event bus to the engine's simulated clock and (when
enabled) attaches metrics/tracing to every owned hot layer via
:func:`repro.obs.instrument.instrument_environment`.
"""

from __future__ import annotations

from typing import Any

from repro.activity.coordination import ResourceCoordinator
from repro.activity.dependencies import DependencyGraph
from repro.activity.model import ActivityRegistry
from repro.activity.negotiation import NegotiationService
from repro.activity.scheduler import ActivityScheduler
from repro.communication.model import CommunicationLog, CommunicatorRegistry
from repro.environment.registry import ApplicationRegistry
from repro.environment.resolution import ResolutionCache
from repro.environment.tailoring import TailoringService
from repro.environment.transparency import ViewRegistry
from repro.expertise.model import ExpertiseRegistry
from repro.information.interchange import InterchangeService
from repro.information.objects import InformationBase
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.instrument import instrument_environment
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.odp.trader import Trader
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.sim.world import World
from repro.util.errors import ConfigurationError
from repro.util.events import EventBus


class EnvironmentBuilder:
    """Collects construction options, then wires a CSCWEnvironment.

    Obtain one through ``CSCWEnvironment.builder()``.  All ``with_*``
    methods return the builder for chaining; :meth:`build` validates the
    configuration (a world is mandatory) and produces the environment.
    """

    def __init__(self, cls: type) -> None:
        self._cls = cls
        self._world: World | None = None
        self._name = "mocca"
        self._metrics: MetricsRegistry | None = None
        self._tracer: Tracer | None = None
        self._sampling: "tuple[float, int] | None" = None
        self._events: EventLog | None = None
        self._resolution_cache = True
        self._shed_limit: int | None = None
        self._default_deadline_s: float | None = None
        self._shards: int | None = None
        self._knowledge_base: OrganisationalKnowledgeBase | None = None
        self._activities: "tuple[ActivityRegistry, DependencyGraph] | None" = None
        self._mediation = False

    # -- knobs -------------------------------------------------------------
    def with_world(self, world: World) -> "EnvironmentBuilder":
        """Set the simulated world the environment runs in (required)."""
        self._world = world
        return self

    def with_name(self, name: str) -> "EnvironmentBuilder":
        """Set the environment's name (default ``"mocca"``)."""
        if not name:
            raise ConfigurationError("environment name must be non-empty")
        self._name = name
        return self

    def with_metrics(self, metrics: MetricsRegistry) -> "EnvironmentBuilder":
        """Collect metrics into *metrics* (engine, bus, trader, exchange)."""
        self._metrics = metrics
        return self

    def with_tracer(self, tracer: Tracer) -> "EnvironmentBuilder":
        """Trace ``exchange()`` with *tracer*; sim-mode tracers are bound
        to the world's engine clock so span durations are simulated
        seconds."""
        self._tracer = tracer
        return self

    def with_trace_sampling(self, probability: float, seed: int = 0) -> "EnvironmentBuilder":
        """Head-sample traces at *probability*, deterministically by *seed*.

        Requires ``with_tracer``.  The tracer records roughly
        ``probability`` of all traces (the keep/drop verdict is a seeded
        hash of the trace id, so the same seed keeps the same traces on
        every run), while tail-biased retention still keeps **every**
        trace that errors, misses a deadline, fails over or dead-letters
        — see :meth:`repro.obs.tracing.Tracer.configure_sampling`.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                "trace sampling probability must be within [0, 1]"
            )
        self._sampling = (probability, seed)
        return self

    def with_event_log(self, events: EventLog) -> "EnvironmentBuilder":
        """Record structured, trace-correlated events into *events*.

        The environment emits ``shed``/``deadline-exceeded`` events on
        its own paths; components that receive the same log (breakers,
        gateways, shadowing) add theirs, so one bounded ring buffer
        holds the whole run's noteworthy moments in simulated-time
        order.
        """
        self._events = events
        return self

    def with_resolution_cache(self, enabled: bool) -> "EnvironmentBuilder":
        """Enable/disable the exchange resolution cache (default on).

        Disabling forces every exchange to re-resolve org membership,
        policy verdicts and app formats from scratch — the cold baseline
        the throughput benchmark measures the cache against.
        """
        self._resolution_cache = enabled
        return self

    def with_shed_limit(self, limit: int | None) -> "EnvironmentBuilder":
        """Shed asynchronous deliveries beyond *limit* queued per receiver.

        When an absent receiver already has *limit* store-and-forward
        deliveries queued, further exchanges to them fail with
        ``REASON_OVERLOAD`` (counted as ``env.shed.overload``) instead of
        growing the queue without bound.  ``None`` (the default) never
        sheds.
        """
        if limit is not None and limit < 1:
            raise ConfigurationError("shed limit must be >= 1 (or None)")
        self._shed_limit = limit
        return self

    def with_default_deadline(self, seconds: float | None) -> "EnvironmentBuilder":
        """Give every exchange a default deadline of *seconds* from its start.

        A request's own ``ExchangeRequest.deadline`` overrides the
        default; expired exchanges fail with ``REASON_DEADLINE_EXCEEDED``
        and expired queued deliveries are dropped at flush time
        (``env.shed.expired``).  ``None`` (the default) means exchanges
        never expire.
        """
        if seconds is not None and seconds <= 0:
            raise ConfigurationError("default deadline must be > 0 (or None)")
        self._default_deadline_s = seconds
        return self

    def with_sharding(self, n_shards: int) -> "EnvironmentBuilder":
        """Shard the org/people KB and white pages across *n_shards* DSAs.

        The environment's knowledge base becomes a
        :class:`~repro.sharding.kb.ShardedKnowledgeBase`: every
        organisation's DIT subtree (``o=<org_id>,c=ES``) lives on exactly
        one consistent-hash-assigned shard, exposed as
        ``env.knowledge_base.directory``.  Required for populations past
        a few thousand registered users; a no-op for correctness
        otherwise (same KB contract, same O(1) person index, same shared
        route-verdict memo).  Excludes :meth:`with_knowledge_base`.
        """
        if n_shards < 1:
            raise ConfigurationError("with_sharding needs n_shards >= 1")
        self._shards = n_shards
        return self

    def with_knowledge_base(
        self, knowledge_base: OrganisationalKnowledgeBase
    ) -> "EnvironmentBuilder":
        """Read *knowledge_base* instead of building a fresh one.

        Environments built with one knowledge base share one
        organisational model and its one route-verdict memo, which their
        resolution caches read; a
        :class:`~repro.federation.federation.Federation` builds its
        domains this way.  Excludes :meth:`with_sharding`.
        """
        self._knowledge_base = knowledge_base
        return self

    def with_activities(
        self, registry: ActivityRegistry, dependencies: DependencyGraph
    ) -> "EnvironmentBuilder":
        """Read *registry* and *dependencies* instead of building a fresh pair.

        Environments built with one pair share one inter-activity model,
        which their schedulers and negotiation services work over; a
        :class:`~repro.federation.federation.Federation` builds its
        domains this way.
        """
        self._activities = (registry, dependencies)
        return self

    def with_mediation(self) -> "EnvironmentBuilder":
        """Wire a :class:`~repro.mediation.mediator.Mediator` as ``env.mediator``.

        Application registrations then also publish their converters'
        conversion capabilities as ``format-converter`` offers on the
        environment's trader (plus any direct/partial capabilities the
        descriptor declares), and ``exchange()`` falls back from the
        static interchange hub to mediated multi-hop plans — for formats
        the hub has never seen, and for ``min_fidelity`` floors the hub
        plan cannot meet.  Off by default (``env.mediator`` is ``None``).
        """
        self._mediation = True
        return self

    # -- construction ------------------------------------------------------
    def build(self) -> Any:
        """Construct, wire and return the environment."""
        world = self._world
        if world is None:
            raise ConfigurationError(
                "EnvironmentBuilder needs a world: call with_world(world) first"
            )
        env = object.__new__(self._cls)
        env.world = world
        env.name = self._name
        env.metrics = NULL_METRICS
        env.tracer = NULL_TRACER
        env.events = self._events if self._events is not None else NULL_EVENTS
        env.bus = EventBus()
        # Satellite fix: events published through the environment carry
        # the simulated time of publication.
        env.bus.bind_clock(lambda: world.engine.now)
        if self._knowledge_base is not None:
            if self._shards is not None:
                raise ConfigurationError(
                    "with_sharding and with_knowledge_base exclude each other"
                )
            env.knowledge_base = self._knowledge_base
        elif self._shards is not None:
            from repro.sharding.kb import ShardedKnowledgeBase

            env.knowledge_base = ShardedKnowledgeBase(n_shards=self._shards)
        else:
            env.knowledge_base = OrganisationalKnowledgeBase()
        env.trader = Trader(f"{env.name}-trader", rng=world.rng.fork("trader"))
        # Section 6.1: the org KB dictates the trading policy.
        env.trader.add_policy_hook(env.knowledge_base.trader_policy_hook())
        env.interchange = InterchangeService()
        env.applications = ApplicationRegistry(env.interchange, env.trader)
        env.mediator = None
        if self._mediation:
            from repro.mediation import Mediator

            env.mediator = Mediator(env.trader, node=f"{env.name}-mediator")
            env.applications.set_mediator(env.mediator)
        # The exchange fast path: the KB's shared verdict memo plus this
        # environment's format pairs, flushed by app registrations.
        env.resolution = ResolutionCache(env.knowledge_base, env.applications)
        env.resolution.enabled = self._resolution_cache
        env.applications.add_listener(env.resolution.on_app_registered)
        env.activities, env.dependencies = self._activities or (
            ActivityRegistry(), DependencyGraph()
        )
        env.scheduler = ActivityScheduler(env.activities, env.dependencies, env.bus)
        env.negotiations = NegotiationService(env.activities)
        env.resources = ResourceCoordinator()
        env.information = InformationBase()
        env.communicators = CommunicatorRegistry()
        env.communication_log = CommunicationLog()
        env.expertise = ExpertiseRegistry()
        env.tailoring = TailoringService()
        env.views = ViewRegistry()
        env.exchanges_attempted = 0
        env.exchanges_failed = 0
        env._pending_deliveries = {}
        #: (activity, from_org, to_org) -> the shared CommunicationContext
        env._contexts = {}
        env._shed_limit = self._shed_limit
        env._default_deadline_s = self._default_deadline_s
        # duck-typed: only the sharded KB can place an organisation on a
        # shard, so only sharded environments stamp ``shard`` span tags
        env._shard_of = getattr(env.knowledge_base, "shard_of_org", None)
        env._bind_labelled_metrics(NULL_METRICS)
        instrument_environment(env, metrics=self._metrics, tracer=self._tracer)
        if self._sampling is not None:
            if self._tracer is None:
                raise ConfigurationError(
                    "with_trace_sampling requires with_tracer: the sampling "
                    "verdict is the tracer's to make"
                )
            probability, seed = self._sampling
            self._tracer.configure_sampling(probability, seed=seed)
        return env
