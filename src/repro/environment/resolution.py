"""Memoised resolution for the exchange hot path.

Every ``CSCWEnvironment.exchange()`` must answer the same three questions
before any document moves: which organisations the two people belong to,
whether those organisations' policies permit the interaction, and which
native formats the two applications speak.  Re-deriving those answers per
document is exactly the mediation overhead that worries service-based
mediation systems — the environment is *one* shared mediator, so the
answers are shared too.

The :class:`ResolutionCache` memoises

* per ``(sender, receiver, interaction)`` — the :class:`RouteVerdict`
  (both organisation ids plus the policy-compatibility verdict), and
* per ``(sender_app, receiver_app)`` — the native format pair.

Correctness under mutation is preserved by *keyed invalidation*: the
environment builder subscribes the cache to
:meth:`repro.org.knowledge_base.OrganisationalKnowledgeBase.add_listener`
(fired on organisation, person and policy changes, carrying the mutated
entity) and to
:meth:`repro.environment.registry.ApplicationRegistry.add_listener`
(fired on application registration).  Each cached route is indexed under
the person ids and organisation ids it touches, so a mutation evicts only
the verdicts derived from the mutated entity — registering a person in
org A leaves every route wholly inside org B memoised.  A policy change
between two organisations evicts exactly the routes touching *both*.
Every mutation names its entity, so there is no whole-route flush on
this path; :meth:`ResolutionCache.invalidate_all` is the one explicit
whole-cache reset.  Failed lookups (unknown applications) are never
cached.

Hit/miss/invalidation totals are kept as plain attributes and, when a
metrics registry is attached, exported as ``env.cache.route.<hit|miss>``,
``env.cache.formats.<hit|miss>``, ``env.cache.invalidations`` and
``env.cache.evicted`` counters.  ``invalidations`` counts *logical
invalidation events that evicted at least one entry* — a mutation storm
against an empty or untouched cache costs nothing and counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.errors import UnknownObjectError


@dataclass(frozen=True)
class RouteVerdict:
    """The memoised organisational answer for one (sender, receiver, interaction).

    ``policy_ok`` is only meaningful when the organisations differ;
    intra-organisation routes are always compatible.
    """

    sender_org: str
    receiver_org: str
    policy_ok: bool

    @property
    def cross_org(self) -> bool:
        """True when the route crosses an organisational boundary."""
        return self.sender_org != self.receiver_org


class ResolutionCache:
    """Memoises org/policy verdicts and app format pairs for exchanges.

    ``enabled`` can be flipped off (builder knob
    ``with_resolution_cache(False)``) to force fresh resolution on every
    call — the cold baseline the throughput benchmark compares against.
    Disabling never loses correctness, only speed.

    ``generation`` is a monotonic freshness token: it advances on every
    mutation event (even when nothing was cached), so batch callers that
    hoist a verdict once per run can detect mid-batch mutations with a
    single integer compare and re-resolve instead of serving stale state.
    """

    def __init__(self, knowledge_base: Any, applications: Any) -> None:
        self._kb = knowledge_base
        self._apps = applications
        self._routes: dict[tuple[str, str, str], RouteVerdict] = {}
        self._formats: dict[tuple[str, str], tuple[str, str]] = {}
        #: secondary index: ``p:<person>`` / ``o:<org>`` tag -> route keys
        self._route_index: dict[str, set[tuple[str, str, str]]] = {}
        self._route_tags: dict[tuple[str, str, str], tuple[str, ...]] = {}
        self.enabled = True
        self.route_hits = 0
        self.route_misses = 0
        self.format_hits = 0
        self.format_misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.generation = 0
        self.attach_metrics(None)

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report cache activity to *metrics* (``None`` detaches).

        The per-lookup counters are bound here, once, so a lookup pays
        an ``inc`` on a held counter rather than a lookup by name.
        """
        obs = self._obs = metrics if metrics is not None else NULL_METRICS
        self._m_route_hit = obs.counter("env.cache.route.hit")
        self._m_route_miss = obs.counter("env.cache.route.miss")
        self._m_formats_hit = obs.counter("env.cache.formats.hit")
        self._m_formats_miss = obs.counter("env.cache.formats.miss")

    # -- lookups -----------------------------------------------------------
    def route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        """The org/policy verdict for one directed person pair."""
        if not self.enabled:
            return self._resolve_route(sender, receiver, interaction)
        key = (sender, receiver, interaction)
        verdict = self._routes.get(key)
        if verdict is None:
            self.route_misses += 1
            if self._obs.enabled:
                self._m_route_miss.inc()
            verdict = self._resolve_route(sender, receiver, interaction)
            self._store_route(key, verdict)
        else:
            self.route_hits += 1
            if self._obs.enabled:
                self._m_route_hit.inc()
        return verdict

    def formats(self, sender_app: str, receiver_app: str) -> tuple[str, str]:
        """The (sender, receiver) native format pair for one app pair.

        Unknown applications raise
        :class:`~repro.util.errors.NotRegisteredError` exactly as the
        direct descriptor lookup would; failures are not cached.
        """
        if not self.enabled:
            return self._resolve_formats(sender_app, receiver_app)
        key = (sender_app, receiver_app)
        pair = self._formats.get(key)
        if pair is None:
            self.format_misses += 1
            if self._obs.enabled:
                self._m_formats_miss.inc()
            pair = self._formats[key] = self._resolve_formats(sender_app, receiver_app)
        else:
            self.format_hits += 1
            if self._obs.enabled:
                self._m_formats_hit.inc()
        return pair

    def _resolve_route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        kb = self._kb
        try:
            sender_org = kb.organisation_of(sender)
            receiver_org = kb.organisation_of(receiver)
        except UnknownObjectError:
            sender_org = receiver_org = ""
        policy_ok = True
        if sender_org != receiver_org:
            policy_ok = kb.policies.compatible(sender_org, receiver_org, interaction)
        return RouteVerdict(sender_org, receiver_org, policy_ok)

    def _resolve_formats(self, sender_app: str, receiver_app: str) -> tuple[str, str]:
        apps = self._apps
        return (
            apps.descriptor(sender_app).format_name,
            apps.descriptor(receiver_app).format_name,
        )

    # -- keyed route index -------------------------------------------------
    def _store_route(self, key: tuple[str, str, str], verdict: RouteVerdict) -> None:
        self._routes[key] = verdict
        sender, receiver, _ = key
        tags = tuple(
            {
                f"p:{sender}",
                f"p:{receiver}",
                f"o:{verdict.sender_org}",
                f"o:{verdict.receiver_org}",
            }
        )
        self._route_tags[key] = tags
        index = self._route_index
        for tag in tags:
            index.setdefault(tag, set()).add(key)

    def _drop_route(self, key: tuple[str, str, str]) -> int:
        if self._routes.pop(key, None) is None:
            return 0
        for tag in self._route_tags.pop(key, ()):
            keys = self._route_index.get(tag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._route_index[tag]
        return 1

    def _evict_tag(self, tag: str) -> int:
        keys = self._route_index.get(tag)
        if not keys:
            return 0
        return sum(self._drop_route(key) for key in list(keys))

    def _evict_org_pair(self, org_a: str, org_b: str) -> int:
        first = self._route_index.get(f"o:{org_a}")
        if not first:
            return 0
        if org_a == org_b:
            affected = set(first)
        else:
            second = self._route_index.get(f"o:{org_b}")
            if not second:
                return 0
            affected = first & second
        return sum(self._drop_route(key) for key in affected)

    def _clear_routes(self) -> int:
        removed = len(self._routes)
        self._routes.clear()
        self._route_index.clear()
        self._route_tags.clear()
        return removed

    def _clear_formats(self) -> int:
        removed = len(self._formats)
        self._formats.clear()
        return removed

    def _note_event(self, removed: int) -> None:
        """Account one mutation event that evicted *removed* entries."""
        self.generation += 1
        if removed:
            self.evictions += removed
            self.invalidations += 1
            if self._obs.enabled:
                self._obs.inc("env.cache.invalidations")
                self._obs.inc("env.cache.evicted", removed)

    # -- invalidation ------------------------------------------------------
    def invalidate_formats(self) -> None:
        """Forget every memoised format pair (one logical event)."""
        self._note_event(self._clear_formats())

    def invalidate_all(self) -> None:
        """Forget everything (routes and formats).

        One logical invalidation, counted once — not once per sub-cache.
        """
        self._note_event(self._clear_routes() + self._clear_formats())

    def on_kb_change(self, kind: str, entity_id: str, org: str) -> None:
        """Knowledge-base mutation hook (kind: organisation/person/policy).

        Eviction is scoped to the mutated entity:

        * ``person`` — only routes whose sender or receiver is
          *entity_id*;
        * ``organisation`` — routes touching that organisation, plus
          routes cached while a participant was unknown (empty org ids):
          the new organisation may be the one that makes them resolvable;
        * ``policy`` — routes touching *both* organisations of the
          mutated pair (a policy can only flip verdicts between them).

        Any other *kind* raises :class:`ValueError`: a new mutation kind
        must name its eviction scope here.
        """
        if kind == "person":
            removed = self._evict_tag(f"p:{entity_id}")
        elif kind == "organisation":
            removed = self._evict_tag(f"o:{entity_id}") + self._evict_tag("o:")
        elif kind == "policy":
            removed = self._evict_org_pair(entity_id, org)
        else:
            raise ValueError(f"unknown knowledge-base change kind {kind!r}")
        self._note_event(removed)

    def on_app_registered(self, name: str) -> None:
        """Application-registry mutation hook.

        Format pairs are few (one per app pair, not per person), so a
        registration keeps the conservative whole-flush: re-resolution is
        one miss per live pair.
        """
        self.invalidate_formats()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counters and sizes, for ``describe()`` and the benchmarks."""
        return {
            "route_hits": self.route_hits,
            "route_misses": self.route_misses,
            "format_hits": self.format_hits,
            "format_misses": self.format_misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "generation": self.generation,
            "routes_cached": len(self._routes),
            "formats_cached": len(self._formats),
        }
