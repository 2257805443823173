"""Memoised resolution for the exchange hot path.

Every ``CSCWEnvironment.exchange()`` must answer the same three questions
before any document moves: which organisations the two people belong to,
whether those organisations' policies permit the interaction, and which
native formats the two applications speak.  Re-deriving those answers per
document is exactly the mediation overhead that worries service-based
mediation systems — the environment is *one* shared mediator, so the
answers are shared too.

The :class:`ResolutionCache` memoises the facts a verdict is made of —
each person's organisation id (``""`` when the knowledge base does not
know them), ``{interaction: RouteVerdict}`` per ``(sender_org,
receiver_org)`` pair — and the native format pair per ``(sender_app,
receiver_app)``.  A warm route is two person lookups and one verdict
lookup; the memo grows with people and organisation pairs, never with
person pairs.

Correctness under mutation is preserved by *keyed invalidation*: the
environment builder subscribes the cache to
:meth:`repro.org.knowledge_base.OrganisationalKnowledgeBase.add_listener`
(fired on organisation, person and policy changes, carrying the mutated
entity) and to
:meth:`repro.environment.registry.ApplicationRegistry.add_listener`
(fired on application registration).  A person event forgets that
person; a policy event between two organisations forgets the verdicts of
that pair in both directions; an organisation event forgets the verdicts
and people in that organisation and every unknown person.  Every
mutation names its entity, so there is no whole-route flush on this
path; :meth:`ResolutionCache.invalidate_all` is the one explicit
whole-cache reset.  Failed lookups (unknown applications) are never
cached.

:meth:`ResolutionCache.organisation_of` answers "which organisation is
this person in?" for observers — the exchange span's ``shard`` tag —
from the person memo, falling back to a cold read that it does not
store: an observer reads no more than the untraced exchange did, and
never changes what the cache holds or counts.

Hit/miss/invalidation totals are kept as plain attributes, which an
attached metrics registry reads as the ``env.cache.route.<hit|miss>``,
``env.cache.formats.<hit|miss>``, ``env.cache.invalidations`` and
``env.cache.evicted`` counters.  A route lookup is a hit when it reads
no knowledge-base state.  ``invalidations`` counts *logical invalidation
events that evicted at least one entry* — a mutation storm against an
empty or untouched cache costs nothing and counts nothing.
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
        #: person id -> organisation id (``""`` when the KB does not know them)
        self._people: dict[str, str] = {}
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
        people = self._people
        sender_org = people.get(sender)
        receiver_org = people.get(receiver)
        if sender_org is None or receiver_org is None:
            return self._route_miss(sender, receiver, interaction)
        if sender_org and receiver_org:
            verdicts = self._verdicts.get((sender_org, receiver_org))
            if verdicts is None or (verdict := verdicts.get(interaction)) is None:
                return self._route_miss(sender, receiver, interaction)
        else:
            verdict = UNKNOWN_ROUTE
        self.route_hits += 1
        return verdict

    def _route_miss(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        """Resolve and memoise whichever facts of the route are missing."""
        self.route_misses += 1
        sender_org = self._organisation_of(sender)
        receiver_org = self._organisation_of(receiver)
        if not (sender_org and receiver_org):
            return UNKNOWN_ROUTE
        verdicts = self._verdicts.setdefault((sender_org, receiver_org), {})
        verdict = verdicts.get(interaction)
        if verdict is None:
            verdict = verdicts[interaction] = self._verdict(
                sender_org, receiver_org, interaction
            )
        return verdict

    def _organisation_of(self, person: str) -> str:
        org = self._people.get(person)
        if org is None:
            try:
                org = self._kb.organisation_of(person)
            except UnknownObjectError:
                org = ""
            self._people[person] = org
        return org

    def organisation_of(self, person: str) -> str:
        """The person's organisation id, ``""`` when the KB does not know them.

        The observer's read: served from the person memo when it holds
        *person*, otherwise read cold and not stored, so observing an
        exchange never changes what the cache holds or counts.
        """
        if self.enabled:
            org = self._people.get(person)
            if org is not None:
                return org
        try:
            return self._kb.organisation_of(person)
        except UnknownObjectError:
            return ""

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
        """The cold verdict, read from the knowledge base with no memo."""
        kb = self._kb
        try:
            sender_org = kb.organisation_of(sender)
            receiver_org = kb.organisation_of(receiver)
        except UnknownObjectError:
            return UNKNOWN_ROUTE
        return self._verdict(sender_org, receiver_org, interaction)

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
        """Forget the verdicts and people in *org*, and every unknown person.

        The organisation may make an unknown person resolvable, or may
        replace the one a memoised person was in.
        """
        people, verdicts = self._people, self._verdicts
        stale = [person for person, known in people.items() if known in ("", org)]
        for person in stale:
            del people[person]
        pairs = [pair for pair in verdicts if org in pair]
        return len(stale) + sum(len(verdicts.pop(pair)) for pair in pairs)

    def invalidate_formats(self) -> None:
        """Forget every memoised format pair (one logical event)."""
        removed = len(self._formats)
        self._formats.clear()
        self._note_event(removed)

    def invalidate_all(self) -> None:
        """Forget everything (people, verdicts and formats).

        One logical invalidation, counted once — not once per sub-cache.
        """
        removed = len(self._people) + len(self._formats) + self._verdict_count()
        self._people.clear()
        self._verdicts.clear()
        self._formats.clear()
        self._note_event(removed)

    def on_kb_change(self, kind: str, entity_id: str, org: str) -> None:
        """Knowledge-base mutation hook (kind: organisation/person/policy).

        Eviction is scoped to the mutated entity, as the module docstring
        describes: a policy can only flip verdicts between its two
        organisations, so a policy event pops that pair's verdicts in both
        directions.  Any other *kind* raises :class:`ValueError`: a new
        mutation kind must name its eviction scope here.
        """
        if kind == "person":
            removed = 0 if self._people.pop(entity_id, None) is None else 1
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
            "people_cached": len(self._people),
            "verdicts_cached": self._verdict_count(),
            "formats_cached": len(self._formats),
        }
