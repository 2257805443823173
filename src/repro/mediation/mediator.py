"""The mediator: conversion-graph assembly, plan synthesis, negotiation.

Applications :meth:`~Mediator.publish` conversion capabilities, which
become :class:`~repro.odp.trader.ServiceOffer` s under the
``format-converter`` service type — the trader is the broker, so trading
policy hooks (section 6.1's org-KB policy) gate which converters an
environment may actually use.  From the visible offers the mediator
assembles a directed conversion graph and *synthesizes* plans:
shortest-path searches ranked lexicographically by (fidelity desc, cost
asc, hops asc), so a lossless three-hop chain beats a lossy direct
converter, and ties break deterministically on the path itself.

Synthesized plans are cached per ``(source, target)`` pair with **keyed
invalidation** (the PR 7 tag-eviction pattern, never whole-cache drops):

* each cached plan is indexed under a ``c:<capability_id>`` tag per step
  — withdrawing a capability evicts exactly the plans that execute it
  (correctness-critical: a cached plan never references a dead
  converter);
* publishing a capability evicts only the plans whose *endpoints* touch
  the new edge's formats (``e:<format>`` tags) — those pairs may now
  have a better route.  Plans between unrelated endpoints survive; a new
  interior shortcut upgrades them only when they are next synthesized
  (documented bounded staleness: the cached plan stays valid and
  executable, it is merely no longer optimal).

Fidelity is negotiated, not assumed: :meth:`~Mediator.negotiate` accepts
the best plan when its fidelity clears the caller's ``min_fidelity``
(counting a *downgrade* when lossy), and raises
:class:`~repro.util.errors.FidelityError` — surfaced by the exchange
pipeline as the structured ``REASON_FIDELITY`` outcome — when no plan
does.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from typing import Any

from repro.information.interchange import FormatConverter, TranslationResult
from repro.mediation.capability import (
    COMMON_FORMAT,
    SERVICE_TYPE_CONVERTER,
    ConversionCapability,
    capabilities_from_converter,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.odp.objects import InterfaceRef
from repro.odp.trader import ImportContext, Trader
from repro.util.errors import (
    ConfigurationError,
    FidelityError,
    InteropError,
    NoOfferError,
)


class MediationError(InteropError):
    """No conversion route exists between two formats."""


@dataclass(frozen=True)
class MediationPlan:
    """One synthesized conversion route.

    ``path`` lists the formats visited (endpoints included); ``steps``
    the capability ids executed between them, in order.  ``fidelity``
    is the product of the steps' fidelities, ``cost`` their sum.
    """

    source: str
    target: str
    path: tuple[str, ...]
    steps: tuple[str, ...]
    fidelity: float
    cost: float

    @property
    def hops(self) -> int:
        """Conversion steps executed (0 = identity)."""
        return len(self.steps)

    def to_document(self) -> dict[str, Any]:
        """The wire form stamped on federation relay envelopes."""
        return {
            "source": self.source,
            "target": self.target,
            "path": list(self.path),
            "steps": list(self.steps),
            "fidelity": self.fidelity,
            "cost": self.cost,
            "hops": self.hops,
        }


class Mediator:
    """Synthesizes and executes conversion plans over traded capabilities."""

    def __init__(self, trader: Trader, node: str = "mediator") -> None:
        self._trader = trader
        self._node = node
        #: capability id -> implementation (callables never ride offers)
        self._implementations: dict[str, ConversionCapability] = {}
        #: capability id -> the trader offer advertising it
        self._offer_ids: dict[str, str] = {}
        #: (source, target) -> cached synthesized plan
        self._plans: dict[tuple[str, str], MediationPlan] = {}
        #: secondary index: ``c:<capability>`` / ``e:<format>`` tag -> keys
        self._plan_index: dict[str, set[tuple[str, str]]] = {}
        self._plan_tags: dict[tuple[str, str], tuple[str, ...]] = {}
        #: source format -> outgoing edges, rebuilt lazily from the trader
        self._edges: dict[str, list[ConversionCapability]] = {}
        self._graph_stale = True
        self._obs: MetricsRegistry = NULL_METRICS
        self._tracer: Tracer = NULL_TRACER
        self.publishes = 0
        self.withdrawals = 0
        self.plans_synthesized = 0
        self.plan_hits = 0
        self.plan_evictions = 0
        self.invalidations = 0
        #: full plan-cache drops; every churn path is keyed, so converter
        #: register/withdraw must leave this at 0 (asserted by E17) —
        #: only an explicit :meth:`invalidate_all` moves it
        self.whole_cache_invalidations = 0
        self.negotiated_downgrades = 0
        self.fidelity_rejections = 0
        self.translations = 0
        self.identities = 0
        self.failures = 0

    # -- observability -----------------------------------------------------
    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report mediation activity to *metrics* (``None`` detaches); only
        ``mediation.translations`` and ``mediation.fidelity`` are pushed."""
        self._obs = (metrics or NULL_METRICS).read(self, {
            "mediation.capability.published": lambda: self.publishes,
            "mediation.capability.withdrawn": lambda: self.withdrawals,
            "mediation.plan.hit": lambda: self.plan_hits,
            "mediation.plan.synthesized": lambda: self.plans_synthesized,
            "mediation.plan.evicted": lambda: self.plan_evictions,
            "mediation.negotiation.rejected": lambda: self.fidelity_rejections,
            "mediation.negotiation.downgraded": lambda: self.negotiated_downgrades,
            "mediation.identity": lambda: self.identities,
        }, self._obs)

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Trace plan execution (one span per translate, one per hop)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER

    # -- capability publication --------------------------------------------
    def publish(self, capability: ConversionCapability) -> ConversionCapability:
        """Advertise a conversion capability on the trader.

        The offer carries the metadata (:meth:`offer_properties`); the
        implementation callable stays local.  Publishing evicts exactly
        the cached plans whose endpoints touch the new edge's formats.
        """
        if capability.capability_id in self._implementations:
            raise ConfigurationError(
                f"capability {capability.capability_id!r} already published"
            )
        offer = self._trader.export(
            SERVICE_TYPE_CONVERTER,
            InterfaceRef(self._node, capability.capability_id, "convert"),
            capability.offer_properties(),
            exporter=capability.exporter,
        )
        self._implementations[capability.capability_id] = capability
        self._offer_ids[capability.capability_id] = offer.offer_id
        self._graph_stale = True
        self.publishes += 1
        removed = self._evict_tag(f"e:{capability.source}")
        removed += self._evict_tag(f"e:{capability.target}")
        self._note_event(removed)
        return capability

    def publish_converter(
        self,
        converter: FormatConverter,
        cost: float = 1.0,
        exporter: str = "",
        replace: bool = False,
    ) -> tuple[ConversionCapability, ConversionCapability]:
        """Publish both halves of a hub converter (to/from common form).

        With *replace*, an already-published pair for the same format is
        withdrawn first (keyed eviction of its plans), mirroring
        ``InterchangeService.register(replace=True)``.
        """
        pair = capabilities_from_converter(converter, cost=cost, exporter=exporter)
        if replace:
            for capability in pair:
                if capability.capability_id in self._implementations:
                    self.withdraw(capability.capability_id)
        for capability in pair:
            self.publish(capability)
        return pair

    def withdraw(self, capability_id: str) -> None:
        """Withdraw a capability; plans executing it are evicted (keyed)."""
        if capability_id not in self._implementations:
            raise ConfigurationError(f"unknown capability {capability_id!r}")
        self._trader.withdraw(self._offer_ids.pop(capability_id))
        del self._implementations[capability_id]
        self._graph_stale = True
        self.withdrawals += 1
        self._note_event(self._evict_tag(f"c:{capability_id}"))

    def capability(self, capability_id: str) -> ConversionCapability:
        """Look up a published capability's implementation."""
        try:
            return self._implementations[capability_id]
        except KeyError:
            raise MediationError(f"unknown capability {capability_id!r}") from None

    def capability_count(self) -> int:
        """Capabilities this mediator holds implementations for — O(N)
        for N hub-bridged applications (two halves each)."""
        return len(self._implementations)

    # -- graph assembly ----------------------------------------------------
    def _graph(self) -> dict[str, list[ConversionCapability]]:
        """The conversion graph, rebuilt from trader offers when stale.

        Edges come from a trader *import* (not the local implementation
        map), so policy hooks and federation links decide what the graph
        may use; offers without a local implementation (foreign
        advertisements) are skipped.  Edge lists are sorted so synthesis
        is deterministic regardless of publication order.
        """
        if not self._graph_stale:
            return self._edges
        try:
            offers = self._trader.import_(
                SERVICE_TYPE_CONVERTER,
                context=ImportContext(importer=self._node),
                max_offers=1_000_000,
                search_links=False,
            )
        except NoOfferError:
            offers = []
        edges: dict[str, list[ConversionCapability]] = {}
        for offer in offers:
            capability = self._implementations.get(offer.properties.get("capability"))
            if capability is None:
                continue
            edges.setdefault(capability.source, []).append(capability)
        for outgoing in edges.values():
            outgoing.sort(key=lambda c: (c.target, c.capability_id))
        self._edges = edges
        self._graph_stale = False
        return edges

    def formats(self) -> list[str]:
        """Every format the graph mentions (sources and targets), sorted."""
        edges = self._graph()
        nodes = set(edges)
        for outgoing in edges.values():
            nodes.update(capability.target for capability in outgoing)
        return sorted(nodes)

    def reachable_pairs(self) -> int:
        """Ordered *application-format* pairs with a conversion route.

        The common hub is interior plumbing, not an application format,
        so pairs involving it are excluded — this is the number the E17
        O(N)-converters / N·(N−1)-pairs claim counts.
        """
        edges = self._graph()
        nodes = [f for f in self.formats() if f != COMMON_FORMAT]
        count = 0
        for start in nodes:
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for capability in edges.get(node, ()):
                    if capability.target not in seen:
                        seen.add(capability.target)
                        frontier.append(capability.target)
            count += len(seen - {start, COMMON_FORMAT})
        return count

    # -- plan synthesis ----------------------------------------------------
    def plan(self, source: str, target: str) -> MediationPlan:
        """The best conversion plan for a format pair (cached, keyed).

        Best = lexicographic (fidelity desc, cost asc, hops asc); ties
        break on the path, so same capabilities => same plan at every
        call and across same-seed reruns.  Raises
        :class:`MediationError` when no route exists.
        """
        if source == target:
            return MediationPlan(source, target, (source,), (), 1.0, 0.0)
        key = (source, target)
        cached = self._plans.get(key)
        if cached is not None:
            self.plan_hits += 1
            return cached
        plan = self._synthesize(source, target)
        self.plans_synthesized += 1
        self._store_plan(key, plan)
        return plan

    def _synthesize(self, source: str, target: str) -> MediationPlan:
        """Dijkstra over the conversion graph.

        The priority is ``(-fidelity, cost, hops, path)``: fidelities in
        (0, 1] multiply (never improve along an edge) and costs > 0 add
        (strictly worsen), so the first pop of a node is its best label
        and the search terminates.
        """
        edges = self._graph()
        heap: list[tuple[float, float, int, tuple[str, ...], tuple[str, ...]]] = [
            (-1.0, 0.0, 0, (source,), ())
        ]
        settled: set[str] = set()
        while heap:
            neg_fidelity, cost, hops, path, steps = heapq.heappop(heap)
            node = path[-1]
            if node == target:
                return MediationPlan(
                    source, target, path, steps, -neg_fidelity, cost
                )
            if node in settled:
                continue
            settled.add(node)
            for capability in edges.get(node, ()):
                if capability.target in settled:
                    continue
                heapq.heappush(
                    heap,
                    (
                        neg_fidelity * capability.fidelity,
                        cost + capability.cost,
                        hops + 1,
                        path + (capability.target,),
                        steps + (capability.capability_id,),
                    ),
                )
        self.failures += 1
        raise MediationError(
            f"no conversion route from {source!r} to {target!r} "
            f"({len(self._implementations)} capabilities published)"
        )

    # -- negotiation -------------------------------------------------------
    def negotiate(
        self, source: str, target: str, min_fidelity: float = 0.0
    ) -> MediationPlan:
        """The best plan meeting the caller's fidelity floor.

        A lossy plan (fidelity < 1) is only chosen when *min_fidelity*
        permits — a *negotiated downgrade*, counted as such.  When even
        the best plan falls short, raises
        :class:`~repro.util.errors.FidelityError` carrying the best
        available fidelity, so the caller can decide to lower the floor.
        """
        plan = self.plan(source, target)
        if plan.fidelity < min_fidelity:
            self.fidelity_rejections += 1
            raise FidelityError(
                f"best plan {source!r} -> {target!r} keeps fidelity "
                f"{plan.fidelity:.3f}, below the requested floor "
                f"{min_fidelity:.3f}",
                best_fidelity=plan.fidelity,
                min_fidelity=min_fidelity,
            )
        if plan.fidelity < 1.0:
            self.negotiated_downgrades += 1
        return plan

    # -- execution ---------------------------------------------------------
    def translate(
        self,
        source_format: str,
        target_format: str,
        document: dict[str, Any],
        min_fidelity: float = 0.0,
    ) -> TranslationResult:
        """Negotiate a plan and run the document through it.

        Returns the same :class:`TranslationResult` shape as the static
        interchange service, so the exchange pipeline can fall back here
        transparently; ``hops`` counts actual conversion steps (a
        multi-hop plan reports > 2).
        """
        if source_format == target_format:
            self.translations += 1
            self.identities += 1
            return TranslationResult(
                copy.deepcopy(document), source_format, target_format, 1.0, 0
            )
        plan = self.negotiate(source_format, target_format, min_fidelity)
        with self._tracer.span(
            "mediation.translate",
            source=source_format,
            target=target_format,
            hops=plan.hops,
            fidelity=plan.fidelity,
        ):
            payload = document
            for capability_id in plan.steps:
                capability = self.capability(capability_id)
                with self._tracer.span(
                    "mediation.hop",
                    step=f"{capability.source}->{capability.target}",
                    kind=capability.kind,
                ):
                    payload = capability.convert(payload)
        self.translations += 1
        if self._obs.enabled:
            self._obs.inc("mediation.translations")
            self._obs.observe("mediation.fidelity", plan.fidelity)
        return TranslationResult(payload, source_format, target_format, plan.fidelity, plan.hops)

    # -- keyed plan cache --------------------------------------------------
    def _store_plan(self, key: tuple[str, str], plan: MediationPlan) -> None:
        self._plans[key] = plan
        tags = tuple(
            {f"c:{step}" for step in plan.steps}
            | {f"e:{plan.source}", f"e:{plan.target}"}
        )
        self._plan_tags[key] = tags
        for tag in tags:
            self._plan_index.setdefault(tag, set()).add(key)

    def _drop_plan(self, key: tuple[str, str]) -> int:
        if self._plans.pop(key, None) is None:
            return 0
        for tag in self._plan_tags.pop(key, ()):
            keys = self._plan_index.get(tag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._plan_index[tag]
        return 1

    def _evict_tag(self, tag: str) -> int:
        keys = self._plan_index.get(tag)
        if not keys:
            return 0
        return sum(self._drop_plan(key) for key in list(keys))

    def _note_event(self, removed: int) -> None:
        """Account one mutation event that evicted *removed* plans."""
        if removed:
            self.plan_evictions += removed
            self.invalidations += 1

    def invalidate_all(self) -> None:
        """Drop every cached plan (explicit operator control only —
        never taken by converter churn, which stays keyed)."""
        removed = len(self._plans)
        self._plans.clear()
        self._plan_index.clear()
        self._plan_tags.clear()
        self.whole_cache_invalidations += 1
        self._note_event(removed)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, int | float]:
        """Counters and sizes, for ``describe()`` and the benchmarks."""
        return {
            "capabilities": len(self._implementations),
            "publishes": self.publishes,
            "withdrawals": self.withdrawals,
            "plans_cached": len(self._plans),
            "plans_synthesized": self.plans_synthesized,
            "plan_hits": self.plan_hits,
            "plan_evictions": self.plan_evictions,
            "invalidations": self.invalidations,
            "whole_cache_invalidations": self.whole_cache_invalidations,
            "negotiated_downgrades": self.negotiated_downgrades,
            "fidelity_rejections": self.fidelity_rejections,
            "translations": self.translations,
            "identities": self.identities,
            "failures": self.failures,
        }
