"""Interchange of information between applications.

This module is the heart of the paper's openness argument (sections 3-4):
"services for the access and exchange of information between CSCW and
non-CSCW applications".  Each application registers a *format converter*
that maps its native documents to/from a shared **common form**; the
:class:`InterchangeService` then translates any registered format to any
other in at most two hops (native -> common -> native).

The baseline world (:mod:`repro.baselines`) instead builds pairwise ad-hoc
gateways — experiment E2 measures the O(N) vs O(N^2) difference that
motivates the environment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.errors import ConfigurationError, InteropError

ToCommon = Callable[[dict[str, Any]], dict[str, Any]]
FromCommon = Callable[[dict[str, Any]], dict[str, Any]]

#: required keys in the common form
COMMON_KEYS = ("kind", "title", "body", "attributes")


def make_common(kind: str, title: str, body: str, **attributes: Any) -> dict[str, Any]:
    """Construct a well-formed common-form document.

    >>> doc = make_common("note", "minutes", "we met", author="ana")
    >>> doc["attributes"]["author"]
    'ana'
    """
    return {"kind": kind, "title": title, "body": body, "attributes": dict(attributes)}


def is_common(document: dict[str, Any]) -> bool:
    """True when the document carries all common-form keys."""
    return all(key in document for key in COMMON_KEYS)


@dataclass(frozen=True)
class FormatConverter:
    """One application format's bridge to the common form.

    ``from_common`` returns a new document: the exchange pipeline
    delivers it to the receiver as their own.
    """

    format_name: str
    to_common: ToCommon
    from_common: FromCommon
    #: how much structure survives the native->common mapping, in (0, 1]
    fidelity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fidelity <= 1.0:
            raise ConfigurationError("fidelity must be in (0, 1]")


class TranslationResult(NamedTuple):
    """Outcome of a cross-format translation.

    An immutable named tuple, as every translated exchange builds one.
    It hashes on everything but the document (a dict), so equal results
    still hash equal.
    """

    document: dict[str, Any]
    source_format: str
    target_format: str
    fidelity: float
    hops: int

    def __hash__(self) -> int:
        return hash(self[1:])


@dataclass
class _TranslationPlan:
    """A memoised converter pair for one (source, target) format pair.

    ``validated`` flips to True after the first successful common-form
    validation for the pair; later translations through the same plan
    skip the shape re-check (converters are frozen and assumed
    shape-deterministic — a converter that emits a malformed common form
    does so on its first use and the plan never validates).  Replacing a
    converter evicts every plan touching its format, so the swapped-in
    converter's output is re-validated on first use instead of riding a
    stale ``validated`` flag.
    """

    source: FormatConverter
    target: FormatConverter
    fidelity: float
    validated: bool = False


class InterchangeService:
    """Translates documents between registered application formats.

    Repeated same-pair translations run through a memoised
    :class:`_TranslationPlan` (converter lookup, combined fidelity and
    shape validation amortised to the first call); plan invalidation is
    *keyed*: registering or replacing a converter evicts only the plans
    whose source or target is that format, never the whole cache.
    An attached metrics registry reads its tallies as the
    ``interchange.plan.<hit|miss|evicted>`` and ``interchange.identity`` counters.
    """

    def __init__(self) -> None:
        self._converters: dict[str, FormatConverter] = {}
        self._plans: dict[tuple[str, str], _TranslationPlan] = {}
        self.translations = 0
        self.failures = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.identities = 0
        self._obs: MetricsRegistry = NULL_METRICS

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report plan-cache activity to *metrics* (``None`` detaches)."""
        self._obs = (metrics or NULL_METRICS).read(self, {
            "interchange.plan.hit": lambda: self.plan_hits,
            "interchange.plan.miss": lambda: self.plan_misses,
            "interchange.plan.evicted": lambda: self.plan_evictions,
            "interchange.identity": lambda: self.identities,
        }, self._obs)

    def register(self, converter: FormatConverter, replace: bool = False) -> None:
        """Register an application format (one per format name).

        Pass ``replace=True`` to swap in a new converter for an
        already-registered format.  Either way invalidation is keyed:
        only plans whose source or target is this format are evicted
        (their ``validated`` flag resets with them, so a replacement
        converter is re-validated on first use); plans between other
        formats survive untouched.
        """
        name = converter.format_name
        if name in self._converters and not replace:
            raise ConfigurationError(f"format {name!r} already registered")
        self._converters[name] = converter
        affected = [key for key in self._plans if name in key]
        for key in affected:
            del self._plans[key]
        if affected:
            self.plan_evictions += len(affected)

    def formats(self) -> list[str]:
        """All registered format names, sorted."""
        return sorted(self._converters)

    def is_registered(self, format_name: str) -> bool:
        """True when the format has a converter."""
        return format_name in self._converters

    def converter_count(self) -> int:
        """Number of converters the environment needed — O(N)."""
        return len(self._converters)

    def _converter(self, format_name: str) -> FormatConverter:
        try:
            return self._converters[format_name]
        except KeyError:
            self.failures += 1
            raise InteropError(f"no converter registered for {format_name!r}") from None

    def translate(
        self, source_format: str, target_format: str, document: dict[str, Any]
    ) -> TranslationResult:
        """Translate a native document between two registered formats."""
        if source_format == target_format:
            self.translations += 1
            self.identities += 1
            # deep copy, like every converting path: the receiver must
            # never alias (or mutate) the sender's nested structures
            return TranslationResult(
                copy.deepcopy(document), source_format, target_format, 1.0, 0
            )
        plan = self._plans.get((source_format, target_format))
        if plan is None:
            self.plan_misses += 1
            source = self._converter(source_format)
            target = self._converter(target_format)
            plan = self._plans[(source_format, target_format)] = _TranslationPlan(
                source, target, fidelity=source.fidelity * target.fidelity
            )
        else:
            self.plan_hits += 1
        common = plan.source.to_common(document)
        if not plan.validated:
            if not is_common(common):
                self.failures += 1
                raise InteropError(
                    f"converter {source_format!r} produced a malformed common document "
                    f"(missing keys from {COMMON_KEYS})"
                )
            plan.validated = True
        native = plan.target.from_common(common)
        self.translations += 1
        return TranslationResult(native, source_format, target_format, plan.fidelity, 2)

    def reachable_pairs(self) -> int:
        """Number of ordered format pairs the service can translate.

        With N registered formats this is N*(N-1): full interoperability
        from N converters — the paper's Figure 3 world.
        """
        n = len(self._converters)
        return n * (n - 1)
