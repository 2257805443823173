"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The observability layer the scaling experiments measure themselves
against.  A :class:`MetricsRegistry` is a plain in-process collection of
named instruments with snapshot/reset semantics and zero-dependency
export (``snapshot()`` for dicts/JSON, ``render_text()`` for humans).

Instruments come in two shapes:

* **flat** — ``registry.counter("env.exchange.attempted")`` returns a
  single :class:`Counter`;
* **dimensional** — ``registry.counter("gateway.relays",
  labels=("source", "target"))`` returns a family whose
  ``labels(source="d0", target="d1")`` call hands back a per-label-set
  child.  One registry then serves N domains × M shards without minting
  ad-hoc name suffixes, and snapshots stay deterministic because child
  names render as ``name{k=v,...}`` and sort with everything else.

Families enforce a hard cardinality cap: once a family holds
:data:`CARDINALITY_LIMIT` children, novel label sets collapse into a
shared ``__other__`` child and bump the registry-level
``obs.cardinality.dropped`` counter, so a misbehaving label (say, a
per-user id) cannot grow the registry without bound.

A layer reports a fact it tallies in a plain attribute by *reading* it:
:meth:`MetricsRegistry.read` registers the tally once, at attach, and the
counter reports its growth since, so the hot path keeps only its ``+= 1``.
Histograms, gauges, the labelled outcome families and counters with no
tally (listed in :mod:`repro.obs.instrument`) are *pushed* behind a check
of ``enabled``, ``False`` on the default no-op :data:`NULL_METRICS`.
Attach a registry through :mod:`repro.obs.instrument` or the builder.

This is the library's only registry class.  ``World.metrics`` is an
always-on instance: the simulated network counts every packet into its
``net.sent`` counter and ``net.packets{outcome}`` family.

>>> registry = MetricsRegistry()
>>> registry.inc("requests")
1
>>> registry.observe("latency", 3.0, buckets=(1.0, 5.0))
>>> registry.snapshot()["counters"]["requests"]
1
>>> family = registry.counter("delivered", labels=("domain",))
>>> family.labels(domain="d0").inc()
1
>>> registry.snapshot()["counters"]["delivered{domain=d0}"]
1
>>> NULL_METRICS.enabled
False
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable

#: default histogram bucket upper bounds (powers-of-two-ish spread wide
#: enough for fan-outs, hop counts and latencies alike)
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: default per-family child cap; novel label sets beyond it collapse
#: into the shared ``__other__`` child
CARDINALITY_LIMIT = 64

#: label value every overflow child carries
OVERFLOW_LABEL = "__other__"

#: registry counter bumped once per distinct collapsed label set
CARDINALITY_DROPPED = "obs.cardinality.dropped"


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        """Add *amount* (default 1); return the new value."""
        self.value += amount
        return self.value

    def reset(self) -> None:
        """Zero the counter (used by :meth:`MetricsRegistry.reset`)."""
        self.value = 0


class ReadCounter(Counter):
    """A counter summing its ``sources``' growth (owner -> ``[tally, base]``)
    and ``held``: detached owners' growth, ``inc`` and ``reset``."""

    __slots__ = ("sources", "held")

    def __init__(self, name: str) -> None:
        self.sources: dict[int, list[Any]] = {}
        self.held = 0
        super().__init__(name)

    @property  # type: ignore[override]
    def value(self) -> int:
        return self.held + sum(tally() - base for tally, base in self.sources.values())

    @value.setter
    def value(self, value: int) -> None:
        self.held += value - self.value


class LazyCounter:
    """A flat counter bound by name on its first ``inc``.

    For per-call counts on paths a run may never take: binding the
    counter up front would export a zero-valued series, and
    ``registry.inc(name)`` repeats the name lookup on every call.  The
    first ``inc`` creates the counter and rebinds ``inc`` to the
    counter's own method, so later calls cost what a held counter costs.

    >>> registry = MetricsRegistry()
    >>> hits = LazyCounter(registry, "cache.hit")
    >>> registry.snapshot()["counters"]
    {}
    >>> hits.inc(), hits.inc(2)
    (1, 3)
    >>> registry.snapshot()["counters"]
    {'cache.hit': 3}
    """

    __slots__ = ("inc", "_registry", "_name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self.inc = self._bind_and_inc

    def _bind_and_inc(self, amount: int = 1) -> int:
        self.inc = self._registry.counter(self._name).inc
        return self.inc(amount)


class Gauge:
    """A named value that can go up and down (e.g. queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Raise the gauge by *amount*."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the gauge by *amount*."""
        self.value -= amount

    def reset(self) -> None:
        """Zero the gauge (used by :meth:`MetricsRegistry.reset`)."""
        self.value = 0.0


class Histogram:
    """A fixed-bucket histogram over observed float values.

    Buckets are cumulative-style upper bounds: an observation lands in
    the first bucket whose bound is >= the value; values above the last
    bound land in the implicit ``+inf`` bucket.  Bounds are fixed at
    creation, so ``observe`` is O(log buckets) with no allocation.

    >>> h = Histogram("fanout", buckets=(1.0, 4.0))
    >>> for v in (0.5, 3.0, 100.0): h.observe(v)
    >>> h.count, h.bucket_counts
    (3, [1, 1, 1])
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {buckets!r}")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able summary of the distribution."""
        labels = [f"le_{bound:g}" for bound in self.bounds] + ["le_inf"]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "buckets": dict(zip(labels, self.bucket_counts)),
        }

    def reset(self) -> None:
        """Forget all observations; bucket bounds are kept."""
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")


def render_labelled_name(name: str, label_names: tuple[str, ...], values: tuple[str, ...]) -> str:
    """The exported name of a family child: ``name{k=v,...}``.

    Labels render in declaration order, so one family's children share a
    prefix and sort deterministically.

    >>> render_labelled_name("relays", ("source", "target"), ("d0", "d1"))
    'relays{source=d0,target=d1}'
    """
    pairs = ",".join(f"{k}={v}" for k, v in zip(label_names, values))
    return f"{name}{{{pairs}}}"


class _Family:
    """Shared machinery for dimensional instrument families.

    A family owns per-label-set children, keyed by the tuple of label
    *values* in declaration order.  Children are ordinary
    :class:`Counter`/:class:`Gauge`/:class:`Histogram` instances also
    registered with the owning registry under their rendered
    ``name{k=v,...}`` name, so snapshot/render_text/reset see them for
    free.  At the cardinality cap, novel label sets resolve to the
    shared ``__other__`` child instead of minting new children.
    """

    __slots__ = ("name", "label_names", "limit", "_children", "_overflow", "_registry", "_dropped_keys")

    #: bound on the dedup set for dropped label sets; past it every
    #: novel overflow access bumps the dropped counter (overcount is
    #: preferred over unbounded tracking memory)
    _DROPPED_TRACK_LIMIT = 4 * CARDINALITY_LIMIT

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        label_names: tuple[str, ...],
        limit: int,
    ) -> None:
        if not label_names:
            raise ValueError(f"family {name!r} needs at least one label name")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names in {label_names!r}")
        if limit < 1:
            raise ValueError(f"cardinality limit must be >= 1, got {limit}")
        self.name = name
        self.label_names = tuple(label_names)
        self.limit = limit
        self._children: dict[tuple[str, ...], Any] = {}
        self._overflow: Any = None
        self._registry = registry
        self._dropped_keys: set[tuple[str, ...]] = set()

    # Subclasses say how to mint one child instrument.
    def _create(self, rendered_name: str) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def labels(self, *values: Any, **named: Any) -> Any:
        """The child for one label set; positional or keyword values.

        Keyword form must name every declared label; positional form
        must match the declaration order and arity.
        """
        if named:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                key = tuple(str(named[label]) for label in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"family {self.name!r} expects labels {self.label_names!r}"
                ) from exc
        else:
            if len(values) != len(self.label_names):
                raise ValueError(
                    f"family {self.name!r} expects {len(self.label_names)} "
                    f"label values, got {len(values)}"
                )
            key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is not None:
            return child
        if len(self._children) >= self.limit:
            return self._drop(key)
        child = self._create(render_labelled_name(self.name, self.label_names, key))
        self._children[key] = child
        return child

    def _drop(self, key: tuple[str, ...]) -> Any:
        """Collapse an over-cap label set into the ``__other__`` child."""
        if self._overflow is None:
            overflow_key = (OVERFLOW_LABEL,) * len(self.label_names)
            self._overflow = self._create(
                render_labelled_name(self.name, self.label_names, overflow_key)
            )
        if key not in self._dropped_keys:
            if len(self._dropped_keys) < self._DROPPED_TRACK_LIMIT:
                self._dropped_keys.add(key)
            self._registry.inc(CARDINALITY_DROPPED)
        return self._overflow

    @property
    def cardinality(self) -> int:
        """How many real (non-overflow) children exist."""
        return len(self._children)

    def children(self) -> dict[tuple[str, ...], Any]:
        """Label-set → child, sorted by label values (a copy)."""
        return {key: self._children[key] for key in sorted(self._children)}


class CounterFamily(_Family):
    """A dimensional counter: ``labels(...)`` yields per-set counters."""

    __slots__ = ()

    def _create(self, rendered_name: str) -> Counter:
        return self._registry.counter(rendered_name)

    def inc(self, amount: int = 1, **named: Any) -> int:
        """Shorthand: ``family.inc(domain="d0")`` == ``labels(...).inc()``."""
        return self.labels(**named).inc(amount)


class GaugeFamily(_Family):
    """A dimensional gauge: ``labels(...)`` yields per-set gauges."""

    __slots__ = ()

    def _create(self, rendered_name: str) -> Gauge:
        return self._registry.gauge(rendered_name)

    def set(self, value: float, **named: Any) -> None:
        """Shorthand: set one labelled child in a single call."""
        self.labels(**named).set(value)


class HistogramFamily(_Family):
    """A dimensional histogram; all children share the family's buckets."""

    __slots__ = ("buckets",)

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        label_names: tuple[str, ...],
        limit: int,
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(registry, name, label_names, limit)
        self.buckets = buckets

    def _create(self, rendered_name: str) -> Histogram:
        return self._registry.histogram(rendered_name, self.buckets)

    def observe(self, value: float, **named: Any) -> None:
        """Shorthand: observe into one labelled child in a single call."""
        self.labels(**named).observe(value)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created lazily on first use (``inc``/``set_gauge``/
    ``observe``) or explicitly (``counter``/``gauge``/``histogram``) when
    a caller wants non-default histogram buckets.  Passing ``labels=``
    to ``counter``/``gauge``/``histogram`` returns a dimensional family
    instead of a single instrument (see module docstring).  ``enabled``
    is the flag instrumented hot paths check before recording.
    """

    #: real registries record; the null registry advertises False
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._families: dict[str, _Family] = {}

    # -- instrument access (get-or-create) --------------------------------
    def counter(
        self,
        name: str,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Counter | CounterFamily:
        """The counter *name* (or, with *labels*, its dimensional family).

        ``labels`` and ``limit`` only apply at family creation; asking
        for an existing family with different label names is an error.
        """
        if labels is not None:
            return self._family(name, CounterFamily, tuple(labels), limit)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(
        self,
        name: str,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Gauge | GaugeFamily:
        """The gauge *name* (or, with *labels*, its dimensional family)."""
        if labels is not None:
            return self._family(name, GaugeFamily, tuple(labels), limit)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Histogram | HistogramFamily:
        """The histogram *name*; *buckets* only applies at creation.

        With *labels*, returns the dimensional family; every child
        shares the family's bucket bounds.
        """
        if labels is not None:
            return self._family(
                name, HistogramFamily, tuple(labels), limit,
                buckets if buckets is not None else DEFAULT_BUCKETS,
            )
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return instrument

    def _family(
        self,
        name: str,
        kind: type,
        label_names: tuple[str, ...],
        limit: int | None,
        *extra: Any,
    ) -> Any:
        """Get-or-create one dimensional family; validate on reuse."""
        family = self._families.get(name)
        if family is None:
            family = kind(
                self, name, label_names,
                limit if limit is not None else CARDINALITY_LIMIT,
                *extra,
            )
            self._families[name] = family
            return family
        if not isinstance(family, kind):
            raise ValueError(
                f"family {name!r} already exists as {type(family).__name__}"
            )
        if family.label_names != label_names:
            raise ValueError(
                f"family {name!r} declared with labels {family.label_names!r}, "
                f"requested {label_names!r}"
            )
        return family

    def read(
        self,
        owner: Any,
        tallies: dict[str, Callable[[], int]],
        previous: "MetricsRegistry | None" = None,
        labels: dict[str, str] | None = None,
    ) -> "MetricsRegistry":
        """Export *owner*'s tallies as counters: ``name`` (with *labels*,
        that child of family ``name``) reports ``tallies[name]()``'s growth
        since *owner* was first read, summed over owners.  *owner*'s series
        freeze in *previous*, the registry it reported to until now."""
        key, label_names, values = id(owner), tuple(labels or ()), tuple((labels or {}).values())
        for counter in previous._counters.values() if previous not in (None, self) else ():
            if key in getattr(counter, "sources", ()):
                tally, base = counter.sources.pop(key)
                counter.held += tally() - base
        for name, tally in tallies.items() if self.enabled else ():
            series = render_labelled_name(name, label_names, values) if labels else name
            counter = self._counters.get(series)
            if not isinstance(counter, ReadCounter):
                counter = self._counters[series] = ReadCounter(series)
                if labels:
                    self.counter(name, labels=label_names).labels(*values)
            counter.sources.setdefault(key, [tally, tally()])
        return self

    def family(self, name: str) -> _Family | None:
        """The dimensional family *name* if declared, else None."""
        return self._families.get(name)

    def cardinality(self) -> dict[str, int]:
        """Family name → live (non-overflow) child count, sorted."""
        return {
            name: family.cardinality
            for name, family in sorted(self._families.items())
        }

    # -- recording shorthands ---------------------------------------------
    def inc(self, name: str, amount: int = 1) -> int:
        """Increment counter *name*; return its new value."""
        return self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float, buckets: tuple[float, ...] | None = None) -> None:
        """Record *value* into histogram *name* (*buckets* on first use)."""
        self.histogram(name, buckets).observe(value)

    # -- export / lifecycle -----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dict of every instrument's current state."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }

    def render_text(self) -> str:
        """A plain-text export, one instrument per line.

        >>> r = MetricsRegistry()
        >>> _ = r.inc("a.b")
        >>> print(r.render_text())
        counter a.b 1
        """
        lines: list[str] = []
        for name, counter_ in sorted(self._counters.items()):
            lines.append(f"counter {name} {counter_.value}")
        for name, gauge_ in sorted(self._gauges.items()):
            lines.append(f"gauge {name} {gauge_.value:g}")
        for name, histogram_ in sorted(self._histograms.items()):
            lines.append(
                f"histogram {name} count={histogram_.count} "
                f"mean={histogram_.mean:g} max={histogram_.maximum if histogram_.count else 0:g}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every instrument, keeping names and histogram buckets."""
        for counter_ in self._counters.values():
            counter_.reset()
        for gauge_ in self._gauges.values():
            gauge_.reset()
        for histogram_ in self._histograms.values():
            histogram_.reset()


class _NullCounter(Counter):
    """Counter whose ``inc`` does nothing (shared by the null registry)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> int:
        """Discard the increment; always report zero."""
        return 0


class _NullGauge(Gauge):
    """Gauge that discards all updates."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the update."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the update."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the update."""


class _NullHistogram(Histogram):
    """Histogram that discards all observations."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


class _NullFamily:
    """Family whose every label set resolves to one shared null child."""

    __slots__ = ("_child",)

    label_names: tuple[str, ...] = ()
    cardinality = 0

    def __init__(self, child: Any) -> None:
        self._child = child

    def labels(self, *values: Any, **named: Any) -> Any:
        """Always the shared no-op child."""
        return self._child

    def inc(self, amount: int = 1, **named: Any) -> int:
        """Discard the increment."""
        return 0

    def set(self, value: float, **named: Any) -> None:
        """Discard the update."""

    def observe(self, value: float, **named: Any) -> None:
        """Discard the observation."""

    def children(self) -> dict[tuple[str, ...], Any]:
        """The null family never holds children."""
        return {}


class NullMetricsRegistry(MetricsRegistry):
    """The default, disabled registry: every operation is a no-op.

    Components are born with this attached so instrumented code can run
    unconditionally; real hot paths additionally guard on ``enabled`` to
    skip even the no-op call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_counter_family = _NullFamily(self._null_counter)
        self._null_gauge_family = _NullFamily(self._null_gauge)
        self._null_histogram_family = _NullFamily(self._null_histogram)

    def counter(
        self,
        name: str,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Any:
        """Always the shared no-op counter (or no-op family)."""
        if labels is not None:
            return self._null_counter_family
        return self._null_counter

    def gauge(
        self,
        name: str,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Any:
        """Always the shared no-op gauge (or no-op family)."""
        if labels is not None:
            return self._null_gauge_family
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        labels: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Any:
        """Always the shared no-op histogram (or no-op family)."""
        if labels is not None:
            return self._null_histogram_family
        return self._null_histogram

    def inc(self, name: str, amount: int = 1) -> int:
        """Discard the increment."""
        return 0

    def set_gauge(self, name: str, value: float) -> None:
        """Discard the update."""

    def observe(self, name: str, value: float, buckets: tuple[float, ...] | None = None) -> None:
        """Discard the observation."""


#: the shared disabled registry every component starts with
NULL_METRICS = NullMetricsRegistry()
