"""Memoised resolution for the exchange hot path.

Every ``CSCWEnvironment.exchange()`` must answer the same three questions
before any document moves: which organisations the two people belong to,
whether those organisations' policies permit the interaction, and which
native formats the two applications speak.  Re-deriving those answers per
document is exactly the mediation overhead that worries service-based
mediation systems — the environment is *one* shared mediator, so the
answers are shared too.

The :class:`ResolutionCache` memoises ``{interaction: RouteVerdict}`` per
``(sender_org, receiver_org)`` pair and the native format pair per
``(sender_app, receiver_app)``.  Each person's organisation is not
memoised here: it is read from the knowledge base's person ->
organisation index
(:attr:`~repro.org.knowledge_base.OrganisationalKnowledgeBase.person_index`),
the one record of who belongs where, which the organisations keep exact
however they are written.  A warm route is two index reads and one
verdict lookup; the memo grows with organisation pairs, never with
people.

Correctness under mutation is preserved by *keyed invalidation*: the
environment builder subscribes the cache to
:meth:`repro.org.knowledge_base.OrganisationalKnowledgeBase.add_listener`
(fired on organisation, person and policy changes, carrying the mutated
entity) and to
:meth:`repro.environment.registry.ApplicationRegistry.add_listener`
(fired on application registration).  A person event evicts nothing (the
index already holds the change); a policy event between two
organisations forgets the verdicts of that pair in both directions; an
organisation event forgets the verdicts of every pair with that
organisation.  Every event advances ``generation``.  Every mutation
names its entity, so there is no whole-route flush on this path;
:meth:`ResolutionCache.invalidate_all` is the one explicit whole-cache
reset.  Failed lookups (unknown applications) are never cached.

:meth:`ResolutionCache.organisation_of` answers "which organisation is
this person in?" for observers — the exchange span's ``shard`` tag —
with one index read: an observer reads no more than the untraced
exchange did, and never changes what the cache holds or counts.

Hit/miss/invalidation totals are kept as plain attributes, which an
attached metrics registry reads as the ``env.cache.route.<hit|miss>``,
``env.cache.formats.<hit|miss>``, ``env.cache.invalidations`` and
``env.cache.evicted`` counters.  A route lookup is a miss only when it
must derive an organisation pair's verdict it has not memoised; a route
with a participant the index does not hold needs no verdict and is a
hit.  ``invalidations`` counts *logical invalidation events that evicted
at least one entry* — a mutation storm against an empty or untouched
cache costs nothing and counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


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


#: the verdict for a route with a participant the knowledge base does
#: not know: treated as intra-organisational, so policy is not consulted
UNKNOWN_ROUTE = RouteVerdict("", "", True)


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
        #: the knowledge base's person -> organisation index (read-only)
        self._index = knowledge_base.person_index
        #: (sender org, receiver org) -> interaction -> verdict
        self._verdicts: dict[tuple[str, str], dict[str, RouteVerdict]] = {}
        self._formats: dict[tuple[str, str], tuple[str, str]] = {}
        self.enabled = True
        self.route_hits = 0
        self.route_misses = 0
        self.format_hits = 0
        self.format_misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.generation = 0
        self._obs: MetricsRegistry = NULL_METRICS

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report cache activity to *metrics* (``None`` detaches)."""
        self._obs = (metrics or NULL_METRICS).read(self, {
            "env.cache.route.hit": lambda: self.route_hits,
            "env.cache.route.miss": lambda: self.route_misses,
            "env.cache.formats.hit": lambda: self.format_hits,
            "env.cache.formats.miss": lambda: self.format_misses,
            "env.cache.invalidations": lambda: self.invalidations,
            "env.cache.evicted": lambda: self.evictions,
        }, self._obs)

    # -- lookups -----------------------------------------------------------
    def route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        """The org/policy verdict for one directed person pair."""
        if not self.enabled:
            return self._resolve_route(sender, receiver, interaction)
        index = self._index
        sender_org = index.get(sender)
        receiver_org = index.get(receiver)
        if sender_org and receiver_org:
            verdicts = self._verdicts.get((sender_org, receiver_org))
            if verdicts is None or (verdict := verdicts.get(interaction)) is None:
                self.route_misses += 1
                verdict = self._verdict(sender_org, receiver_org, interaction)
                self._verdicts.setdefault((sender_org, receiver_org), {})[interaction] = verdict
                return verdict
        else:
            verdict = UNKNOWN_ROUTE
        self.route_hits += 1
        return verdict

    def organisation_of(self, person: str) -> str:
        """The person's organisation id, ``""`` when the KB does not know them.

        The observer's read: one index read, so observing an exchange
        never changes what the cache holds or counts.
        """
        return self._index.get(person, "")

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
            pair = self._formats[key] = self._resolve_formats(sender_app, receiver_app)
        else:
            self.format_hits += 1
        return pair

    def _resolve_route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        """The cold verdict, derived afresh with no memo."""
        sender_org = self._index.get(sender)
        receiver_org = self._index.get(receiver)
        if sender_org and receiver_org:
            return self._verdict(sender_org, receiver_org, interaction)
        return UNKNOWN_ROUTE

    def _verdict(self, sender_org: str, receiver_org: str, interaction: str) -> RouteVerdict:
        policy_ok = sender_org == receiver_org or self._kb.policies.compatible(
            sender_org, receiver_org, interaction
        )
        return RouteVerdict(sender_org, receiver_org, policy_ok)

    def _resolve_formats(self, sender_app: str, receiver_app: str) -> tuple[str, str]:
        apps = self._apps
        return (
            apps.descriptor(sender_app).format_name,
            apps.descriptor(receiver_app).format_name,
        )

    # -- invalidation ------------------------------------------------------
    def _note_event(self, removed: int) -> None:
        """Account one mutation event that evicted *removed* entries."""
        self.generation += 1
        if removed:
            self.evictions += removed
            self.invalidations += 1

    def _evict_organisation(self, org: str) -> int:
        """Forget the verdicts of every organisation pair with *org*."""
        verdicts = self._verdicts
        pairs = [pair for pair in verdicts if org in pair]
        return sum(len(verdicts.pop(pair)) for pair in pairs)

    def invalidate_formats(self) -> None:
        """Forget every memoised format pair (one logical event)."""
        removed = len(self._formats)
        self._formats.clear()
        self._note_event(removed)

    def invalidate_all(self) -> None:
        """Forget everything (verdicts and formats).

        One logical invalidation, counted once — not once per sub-cache.
        """
        removed = len(self._formats) + self._verdict_count()
        self._verdicts.clear()
        self._formats.clear()
        self._note_event(removed)

    def on_kb_change(self, kind: str, entity_id: str, org: str) -> None:
        """Knowledge-base mutation hook (kind: organisation/person/policy).

        Eviction is scoped to the mutated entity, as the module docstring
        describes: a person event evicts nothing, and a policy can only
        flip verdicts between its two organisations, so a policy event
        pops that pair's verdicts in both directions.  Any other *kind*
        raises :class:`ValueError`: a new mutation kind must name its
        eviction scope here.
        """
        if kind == "person":
            removed = 0
        elif kind == "organisation":
            removed = self._evict_organisation(entity_id)
        elif kind == "policy":
            verdicts = self._verdicts
            removed = len(verdicts.pop((entity_id, org), ()))
            removed += len(verdicts.pop((org, entity_id), ()))
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
    def _verdict_count(self) -> int:
        return sum(len(verdicts) for verdicts in self._verdicts.values())

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
            "verdicts_cached": self._verdict_count(),
            "formats_cached": len(self._formats),
        }
