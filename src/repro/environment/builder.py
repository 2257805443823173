"""Fluent construction of the CSCW environment.

``CSCWEnvironment.builder()`` is the recommended construction path: a
small fluent :class:`EnvironmentBuilder` whose knobs inject observability
(metrics registry, tracer) and extra trading policy at construction time
instead of monkey-patching them on afterwards::

    env = (CSCWEnvironment.builder()
           .with_world(world)
           .with_name("mocca")
           .with_metrics(MetricsRegistry())
           .with_tracer(Tracer())
           .with_trader_policy(my_policy_hook)
           .build())

The legacy ``CSCWEnvironment(world, name=...)`` constructor routes
through this builder, so both paths perform identical wiring: services
constructed, the org-KB trading policy installed on the trader, the
event bus bound to the engine's simulated clock, and (when enabled)
metrics/tracing attached to every owned hot layer via
:func:`repro.obs.instrument.instrument_environment`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

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
from repro.obs.slo import LatencySLO, RatioSLO, SLOEngine
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.odp.trader import ImportContext, ServiceOffer, Trader
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.sim.world import World
from repro.util.errors import ConfigurationError
from repro.util.events import EventBus

if TYPE_CHECKING:  # imported lazily at runtime: control depends on obs
    from repro.control.plane import ControlPolicy

#: a trading-policy predicate, as accepted by Trader.add_policy_hook
TraderPolicy = Callable[[ServiceOffer, ImportContext], bool]


class EnvironmentBuilder:
    """Collects construction options, then wires a CSCWEnvironment.

    Obtain one through ``CSCWEnvironment.builder()``.  All ``with_*``
    methods return the builder for chaining; :meth:`build` validates the
    configuration (a world is mandatory) and produces the environment.
    """

    def __init__(self, cls: type | None = None) -> None:
        if cls is None:
            from repro.environment.environment import CSCWEnvironment

            cls = CSCWEnvironment
        self._cls = cls
        self._world: World | None = None
        self._name = "mocca"
        self._metrics: MetricsRegistry | None = None
        self._tracer: Tracer | None = None
        self._sampling: "tuple[float, int] | None" = None
        self._events: EventLog | None = None
        self._slo_period_s: float | None = None
        self._slo_objectives: tuple = ()
        self._control = False
        self._control_policy: "ControlPolicy | None" = None
        self._trader_policies: list[TraderPolicy] = []
        self._resolution_cache = True
        self._shed_limit: int | None = None
        self._default_deadline_s: float | None = None
        self._shards: int | None = None
        self._shard_country = "ES"
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

    def with_slo(
        self,
        objectives: "Iterable[RatioSLO | LatencySLO] | None" = None,
        sample_period_s: float = 1.0,
    ) -> "EnvironmentBuilder":
        """Attach an (unstarted) :class:`~repro.obs.slo.SLOEngine`.

        Requires ``with_metrics``: objectives window the environment's
        own counters and histograms.  *objectives* takes declarative
        :class:`~repro.obs.slo.RatioSLO` / :class:`~repro.obs.slo.LatencySLO`
        specs so the SLOs the control plane acts on are stated at build
        time; more can still be added post-build with
        ``env.slo.add_ratio(...)``/``add_latency(...)``.  Call
        ``env.slo.start()`` to arm sampling.  Burn alerts go to the
        event log when one is attached.
        """
        if sample_period_s <= 0:
            raise ConfigurationError("SLO sample_period_s must be > 0")
        self._slo_period_s = sample_period_s
        self._slo_objectives = tuple(objectives) if objectives is not None else ()
        return self

    def with_control(self, policy: "ControlPolicy | None" = None) -> "EnvironmentBuilder":
        """Attach an adaptive :class:`~repro.control.plane.ControlPlane`.

        Requires ``with_slo`` (the plane subscribes to burn alerts) and
        therefore ``with_metrics``.  The plane comes up managing the
        environment's shed/deadline knobs and watching ``env.slo``, is
        exposed as ``env.control``, and is left unstarted — call
        ``env.control.start()`` (and ``env.slo.start()``) to arm it.
        *policy* defaults to :class:`~repro.control.plane.ControlPolicy`.
        """
        self._control = True
        self._control_policy = policy
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

        An explicit ``deadline=`` argument on ``exchange``/
        ``exchange_many`` overrides the default; expired exchanges fail
        with ``REASON_DEADLINE_EXCEEDED`` and expired queued deliveries
        are dropped at flush time (``env.shed.expired``).  ``None`` (the
        default) means exchanges never expire.
        """
        if seconds is not None and seconds <= 0:
            raise ConfigurationError("default deadline must be > 0 (or None)")
        self._default_deadline_s = seconds
        return self

    def with_sharding(self, n_shards: int, country: str = "ES") -> "EnvironmentBuilder":
        """Shard the org/people KB and white pages across *n_shards* DSAs.

        The environment's knowledge base becomes a
        :class:`~repro.sharding.kb.ShardedKnowledgeBase`: person lookups
        go through an O(1) person -> org index instead of the base
        class's linear scan, and every organisation's DIT subtree
        (``o=<org_id>,c=<country>``) lives on exactly one
        consistent-hash-assigned shard, exposed as
        ``env.knowledge_base.directory``.  Required for populations past
        a few thousand registered users; a no-op for correctness
        otherwise (same KB contract, same keyed change notifications).
        """
        if n_shards < 1:
            raise ConfigurationError("with_sharding needs n_shards >= 1")
        self._shards = n_shards
        self._shard_country = country
        return self

    def with_mediation(self, enabled: bool = True) -> "EnvironmentBuilder":
        """Wire a :class:`~repro.mediation.mediator.Mediator` as ``env.mediator``.

        Application registrations then also publish their converters'
        conversion capabilities as ``format-converter`` offers on the
        environment's trader (plus any direct/partial capabilities the
        descriptor declares), and ``exchange()`` falls back from the
        static interchange hub to mediated multi-hop plans — for formats
        the hub has never seen, and for ``min_fidelity`` floors the hub
        plan cannot meet.  Off by default (``env.mediator`` is ``None``).
        """
        self._mediation = enabled
        return self

    def with_trader_policy(self, hook: TraderPolicy) -> "EnvironmentBuilder":
        """Install an extra trading-policy predicate on the trader.

        Hooks accumulate (call repeatedly for several) and run after the
        organisational knowledge base's own policy hook.
        """
        self._trader_policies.append(hook)
        return self

    # -- construction ------------------------------------------------------
    def build(self) -> Any:
        """Construct, wire and return the environment."""
        environment = object.__new__(self._cls)
        self._wire(environment)
        return environment

    def _wire(self, env: Any) -> None:
        """Perform the full construction onto *env* (shared with the
        legacy ``CSCWEnvironment.__init__`` path)."""
        world = self._world
        if world is None:
            raise ConfigurationError(
                "EnvironmentBuilder needs a world: call with_world(world) first"
            )
        env.world = world
        env.name = self._name
        env.metrics = NULL_METRICS
        env.tracer = NULL_TRACER
        env.events = self._events if self._events is not None else NULL_EVENTS
        env.bus = EventBus()
        # Satellite fix: events published through the environment carry
        # the simulated time of publication.
        env.bus.bind_clock(lambda: world.engine.now)
        if self._shards is not None:
            from repro.sharding.kb import ShardedKnowledgeBase

            env.knowledge_base = ShardedKnowledgeBase(
                n_shards=self._shards, country=self._shard_country
            )
        else:
            env.knowledge_base = OrganisationalKnowledgeBase()
        env.trader = Trader(f"{env.name}-trader", rng=world.rng.fork("trader"))
        # Section 6.1: the org KB dictates the trading policy.
        env.trader.add_policy_hook(env.knowledge_base.trader_policy_hook())
        for hook in self._trader_policies:
            env.trader.add_policy_hook(hook)
        env.interchange = InterchangeService()
        env.applications = ApplicationRegistry(env.interchange, env.trader)
        env.mediator = None
        if self._mediation:
            from repro.mediation import Mediator

            env.mediator = Mediator(env.trader, node=f"{env.name}-mediator")
            env.applications.set_mediator(env.mediator)
        # The exchange fast path: memoised org/policy/format resolution,
        # invalidated by KB and app-registry mutations.
        env.resolution = ResolutionCache(env.knowledge_base, env.applications)
        env.resolution.enabled = self._resolution_cache
        env.knowledge_base.add_listener(env.resolution.on_kb_change)
        env.applications.add_listener(env.resolution.on_app_registered)
        env.activities = ActivityRegistry()
        env.dependencies = DependencyGraph()
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
        # duck-typed: only the sharded KB can place a receiver on a shard,
        # so only sharded environments stamp ``shard`` span tags
        env._shard_of = getattr(env.knowledge_base, "shard_of_person", None)
        env._bind_labelled_metrics()
        instrument_environment(env, metrics=self._metrics, tracer=self._tracer)
        if self._sampling is not None:
            if self._tracer is None:
                raise ConfigurationError(
                    "with_trace_sampling requires with_tracer: the sampling "
                    "verdict is the tracer's to make"
                )
            probability, seed = self._sampling
            self._tracer.configure_sampling(probability, seed=seed)
        env.slo = None
        if self._slo_period_s is not None:
            if self._metrics is None:
                raise ConfigurationError(
                    "with_slo requires with_metrics: objectives window the "
                    "environment's counters and histograms"
                )
            env.slo = SLOEngine(
                world.engine,
                self._metrics,
                events=env.events if env.events.enabled else None,
                sample_period_s=self._slo_period_s,
            )
            env.slo.declare(*self._slo_objectives)
        env.control = None
        if self._control:
            from repro.control.plane import ControlPlane

            if env.slo is None:
                raise ConfigurationError(
                    "with_control requires with_slo: the control plane "
                    "subscribes to burn alerts"
                )
            env.control = ControlPlane(
                world.engine,
                policy=self._control_policy,
                metrics=self._metrics,
                events=env.events if env.events.enabled else None,
                tracer=self._tracer,
            )
            env.control.watch_slo(env.slo)
            env.control.manage_environment(env.name, env)
