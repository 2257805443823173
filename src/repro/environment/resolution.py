"""Memoised resolution for the exchange hot path.

Every ``CSCWEnvironment.exchange()`` must answer the same three questions
before any document moves: which organisations the two people belong to,
whether those organisations' policies permit the interaction, and which
native formats the two applications speak.  Re-deriving those answers per
document is exactly the mediation overhead that worries service-based
mediation systems — the environment is *one* shared mediator, so the
answers are shared too.

The :class:`ResolutionCache` reads ``{interaction: RouteVerdict}`` per
``(sender_org, receiver_org)`` pair from the knowledge base's one memo,
:attr:`~repro.org.knowledge_base.OrganisationalKnowledgeBase.route_verdicts`,
which every environment reading that knowledge base shares: a verdict
derived through one domain of a federation is a hit in every other.  It
memoises the native format pair per ``(sender_app, receiver_app)``
itself, as the application registry is per environment.  Each person's
organisation is not memoised: it is read from the knowledge base's
person -> organisation index
(:attr:`~repro.org.knowledge_base.OrganisationalKnowledgeBase.person_index`),
the one record of who belongs where.  A warm route is two index reads
and one verdict lookup; the memo grows with organisation pairs, never
with people.

A verdict depends on the policy registry alone, so the knowledge base
keeps its memo correct by itself: a policy declare or revoke forgets
that organisation pair's verdicts in both directions, and a person or
organisation write evicts nothing.  Every write advances the knowledge
base's ``generation``, and so does this cache's format flush
(:meth:`ResolutionCache.on_app_registered`, subscribed to
:meth:`repro.environment.registry.ApplicationRegistry.add_listener`):
a batch that hoisted its admission compares one integer per item and
re-admits when it moved.  Failed lookups (unknown applications) are
never cached.

:meth:`ResolutionCache.organisation_of` answers "which organisation is
this person in?" for observers — the exchange span's ``shard`` tag —
with one index read: an observer reads no more than the untraced
exchange did, and never changes what the cache holds or counts.

Hit/miss totals are plain attributes of each cache, which an attached
metrics registry reads as the ``env.cache.route.<hit|miss>`` and
``env.cache.formats.<hit|miss>`` counters.  A route lookup is a miss
only when it must derive an organisation pair's verdict nobody has
memoised; a route with a participant the index does not hold needs no
verdict and is a hit.  ``env.cache.invalidations`` counts *changes that
evicted at least one entry* and ``env.cache.evicted`` the entries: the
knowledge base's policy changes, read with the knowledge base as their
owner so one registry counts each once however many environments read
it, plus each cache's own format flushes.
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
    """Reads the knowledge base's verdict memo and memoises app format pairs.

    ``enabled`` can be flipped off (builder knob
    ``with_resolution_cache(False)``) to force fresh resolution on every
    call — the cold baseline the throughput benchmark compares against.
    Disabling never loses correctness, only speed.
    """

    def __init__(self, knowledge_base: Any, applications: Any) -> None:
        self._kb = knowledge_base
        self._apps = applications
        #: the knowledge base's person -> organisation index (read-only)
        self._index = knowledge_base.person_index
        #: the knowledge base's shared (sender org, receiver org) ->
        #: interaction -> verdict memo, held by reference
        self._verdicts: dict[tuple[str, str], dict[str, RouteVerdict]] = (
            knowledge_base.route_verdicts
        )
        self._formats: dict[tuple[str, str], tuple[str, str]] = {}
        self.enabled = True
        self.route_hits = 0
        self.route_misses = 0
        self.format_hits = 0
        self.format_misses = 0
        #: format flushes that evicted pairs, and the pairs evicted
        self.invalidations = 0
        self.evictions = 0
        self._obs: MetricsRegistry = NULL_METRICS

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report cache activity to *metrics* (``None`` detaches)."""
        kb, registry = self._kb, metrics or NULL_METRICS
        registry.read(kb, {
            "env.cache.invalidations": lambda: kb.invalidations,
            "env.cache.evicted": lambda: kb.evictions,
        }, self._obs)
        self._obs = registry.read(self, {
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
    def on_app_registered(self, name: str) -> None:
        """Application-registry mutation hook: forget every format pair.

        Format pairs are few (one per app pair, not per person), so a
        registration keeps the conservative whole-flush: re-resolution is
        one miss per live pair.  The flush advances the knowledge base's
        ``generation``, so a batch in flight re-admits its route.
        """
        removed = len(self._formats)
        self._formats.clear()
        self._kb.generation += 1
        if removed:
            self.evictions += removed
            self.invalidations += 1

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
            "invalidations": self.invalidations + self._kb.invalidations,
            "evictions": self.evictions + self._kb.evictions,
            "generation": self._kb.generation,
            "verdicts_cached": self._verdict_count(),
            "formats_cached": len(self._formats),
        }
