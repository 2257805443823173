"""Sim-clock-aware trace spans.

A :class:`Tracer` opens nested :class:`Span`\\ s through a context
manager; by default the span clock is the *simulated* clock (bind an
engine with :meth:`Tracer.bind_engine`), so durations measure how much
simulated time an operation covered — the quantity the paper's claims
are about.

Trace and span ids are drawn from deterministic counters — no wall
clock, no randomness — so a seeded run always produces the same ids.

**Sampling** (:meth:`Tracer.configure_sampling`) makes tracing cheap
enough to leave on at scale: a seeded hash of the trace id decides at
the *root* whether a trace is recorded, the decision rides along in
:class:`~repro.obs.context.TraceContext` so every hop agrees, and
tail-biased retention rescues any unsampled trace that turns out to
matter — spans buffer until the trace settles, and a span that errors,
misses a deadline, fails over (``federation.forward``) or dead-letters
promotes its whole trace into the retained set.  The decision hash is
pure integer avalanche mixing of the root's trace index with the seed,
so it is independent of ``PYTHONHASHSEED`` and identical across runs.

>>> sampler = Tracer().configure_sampling(0.5, seed=7)
>>> decisions = []
>>> for _ in range(8):
...     with sampler.span("op") as span:
...         decisions.append(span.sampled)
>>> 0 < sum(decisions) < 8      # some kept, some dropped
True
>>> len(sampler.finished()) == sum(decisions)
True

>>> tracer = Tracer()
>>> with tracer.span("outer", who="ana") as outer:
...     with tracer.span("inner") as inner:
...         same_trace = inner.trace_id == outer.trace_id
>>> same_trace
True
>>> [s.name for s in tracer.finished()]
['inner', 'outer']
>>> NULL_TRACER.enabled
False
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.obs.context import TraceContext


def _zero_clock() -> float:
    """The unbound default: every reading is 0.0 until a clock is bound."""
    return 0.0


#: span names that always promote an unsampled trace into retention
#: (a forward is the failover marker — the interesting hop by definition)
RETAIN_SPAN_NAMES = frozenset({"federation.forward"})

#: an ``outcome``/``reason_code``/``reason`` tag value that means the
#: operation completed well; anything else on a settled span is a
#: failure signal worth keeping the whole trace for
_HEALTHY_OUTCOME = "delivered"

#: how many finalized traces may sit drained-but-unswept before the
#: pending table is compacted (bounds sampler memory without finalizing
#: a trace that might still grow a late asynchronous hop)
_PENDING_LAG = 64

#: recycled-span free-list bound: deep enough to absorb a steady
#: sampled-out stream, small enough that a burst of wide traces cannot
#: pin memory through the pool
_POOL_LIMIT = 256


class Span:
    """One traced operation: a name, tags, and start/end clock readings.

    ``start``/``end`` are readings of the owning tracer's clock, in
    simulated seconds once an engine is bound.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "tags", "start", "end",
        "sampled", "_tracer", "_pending_state",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str = "",
        tags: dict[str, Any] | None = None,
        tracer: "Tracer | None" = None,
        sampled: bool = True,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        # the span takes ownership of *tags* (tracers pass a fresh
        # kwargs dict; copying it again would double the per-span cost)
        self.tags = tags if tags is not None else {}
        self.start = 0.0
        self.end: float | None = None
        self.sampled = sampled
        self._tracer = tracer
        #: the pending-table entry of an unsampled span's trace, stashed
        #: at registration so closing skips the table lookup
        self._pending_state: "list[Any] | None" = None

    # The span is its own context manager (one allocation per traced
    # operation; a separate guard object would double it on a hot path).
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start = tracer._clock()
        tracer._stack.append(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        tracer = self._tracer
        self.end = tracer._clock()
        if exc is not None:
            self.tags["error"] = repr(exc)
        tracer._stack.pop()
        if self.sampled:
            tracer._finished.append(self)
        else:
            tracer._close_unsampled(self)
        return False

    @property
    def finished(self) -> bool:
        """True once the span's context manager has exited."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed clock between start and end (0.0 while open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def tag(self, **tags: Any) -> "Span":
        """Attach or overwrite tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able view of the span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tags": dict(self.tags),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


class Tracer:
    """Produces nested spans timed on a pluggable clock.

    The clock defaults to a constant 0.0 until one is bound; in normal
    use :func:`repro.obs.instrument.instrument_environment` (or
    ``CSCWEnvironment.builder()``) binds the simulation engine, so
    durations are expressed in simulated seconds.
    """

    #: real tracers record; the null tracer advertises False
    enabled = True

    __slots__ = (
        "_clock", "_stack", "_finished",
        "_trace_ids", "_span_ids",
        "_sample_cut", "_sample_p", "_sample_seed", "_sample_salt",
        "_pending", "_retained_ids", "_pool", "sampled_in", "sampled_out",
        "tail_retained",
    )

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        # the clock is never None so the hot enter/exit path can call it
        # without a guard (the unbound default pins every reading to 0.0)
        self._clock: Callable[[], float] = clock if clock is not None else _zero_clock
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # -- head-sampling state (inert until configure_sampling) ----------
        self._sample_cut: int | None = None
        self._sample_p = 1.0
        self._sample_seed = 0
        self._sample_salt = 0
        #: trace_id → [open_spans, retain, buffered spans] for unsampled
        #: traces still settling
        self._pending: dict[str, list[Any]] = {}
        #: unsampled traces already promoted into ``_finished``
        self._retained_ids: set[str] = set()
        #: recycled Span shells from dropped traces (see :meth:`_make_span`)
        self._pool: list[Span] = []
        self.sampled_in = 0
        self.sampled_out = 0
        self.tail_retained = 0

    @property
    def depth(self) -> int:
        """Number of currently open (nested) spans."""
        return len(self._stack)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use *clock* (a zero-arg float callable) for span timestamps."""
        self._clock = clock

    def bind_engine(self, engine: Any) -> None:
        """Bind the simulated clock of *engine* (anything with ``.now``)."""
        self.bind_clock(lambda: engine.now)

    # -- sampling ----------------------------------------------------------
    def configure_sampling(self, p: float | None, seed: int = 0) -> "Tracer":
        """Head-sample traces at probability *p*, seeded and deterministic.

        ``p=None`` or ``p=1.0`` disables sampling (record everything —
        the pre-sampling fast path, byte-identical behaviour).  The
        decision is made once per trace at its root by avalanche-mixing
        the root's trace index with the seed, so the same seed always
        keeps the same traces; hops that continue a propagated
        :class:`TraceContext` inherit the origin's verdict.
        """
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError("sampling probability must be in [0, 1]")
        if p is None or p >= 1.0:
            self._sample_cut = None
            self._sample_p = 1.0
        else:
            self._sample_cut = int(p * 2**32)
            self._sample_p = p
        self._sample_seed = seed
        # pre-mix the seed once so the per-trace verdict is pure integer
        # arithmetic (the hot path pays no encode/concat/digest)
        salt = (seed * 0x85EBCA6B + 0xC2B2AE35) & 0xFFFFFFFF
        salt = ((salt ^ (salt >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
        self._sample_salt = salt ^ (salt >> 16)
        return self

    @property
    def sampling(self) -> tuple[float, int] | None:
        """``(p, seed)`` while sampling is on, else ``None``."""
        if self._sample_cut is None:
            return None
        return (self._sample_p, self._sample_seed)

    def _decide(self, index: int) -> bool:
        """The seeded per-trace keep/drop verdict (made once, at the root).

        *index* is the root's draw from the trace-id counter, so the
        verdict is a pure-integer function of (index, seed): independent
        of ``PYTHONHASHSEED``, identical across runs.  Multiplying by an
        odd constant and avalanche-mixing breaks the linearity of the
        counter (and of the additive seed salt), so consecutive traces
        land uniformly and distinct seeds select effectively independent
        sample sets.  Every avoided statement here is paid once per
        exchange when sampling is on, which is why the input is the raw
        counter value and not the formatted trace id.
        """
        digest = (index * 0x9E3779B1 + self._sample_salt) & 0xFFFFFFFF
        digest = ((digest ^ (digest >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
        digest ^= digest >> 16
        if digest < self._sample_cut:
            self.sampled_in += 1
            return True
        self.sampled_out += 1
        return False

    @staticmethod
    def _should_retain(span: Span) -> bool:
        """Tail-bias: does this settled span make its trace worth keeping?"""
        tags = span.tags
        if tags:
            if "error" in tags:
                return True
            for key in ("outcome", "reason_code", "reason"):
                value = tags.get(key)
                if value is not None and value != _HEALTHY_OUTCOME:
                    return True
            if tags.get("delivered") is False:
                return True
        return span.name in RETAIN_SPAN_NAMES

    def _register_unsampled(self, span: Span, trace_id: str) -> None:
        """Count one more open span on an unsampled, unsettled trace.

        The pending entry is stashed on the span so closing needs no
        second table lookup.  A trace already promoted by tail retention
        never re-enters the pending table: its late spans go straight to
        the retained set in :meth:`_close_unsampled` (re-registering
        would make the late hop's fate depend on its own tags, splitting
        the trace).
        """
        if trace_id in self._retained_ids:
            return
        state = self._pending.get(trace_id)
        if state is None:
            state = self._pending[trace_id] = [1, False, []]
        else:
            state[0] += 1
        span._pending_state = state

    def _close_unsampled(self, span: Span) -> None:
        """Buffer a closing unsampled span; settle its trace when done.

        Multi-span traces finalize lazily (the pending table is swept
        once it holds more than ``_PENDING_LAG`` traces): an async hop —
        a redriven letter, a forward opened during settlement — may join
        a trace whose span count transiently touched zero, and eager
        finalization would split it.  A single-span trace — a root no
        other span ever joined — settles right here instead: the only
        spans that could still join it are ones created after it fully
        closed, the same post-settlement corner the lazy sweep already
        concedes once a trace ages out of the table.
        """
        state = span._pending_state
        if state is None:
            trace_id = span.trace_id
            state = self._pending.get(trace_id)
            if state is None:
                if trace_id in self._retained_ids:
                    # late hop of an already-promoted trace: keep it too
                    self._finished.append(span)
                elif self._should_retain(span):
                    self._finished.append(span)
                    self._retained_ids.add(trace_id)
                    self.tail_retained += 1
                elif len(self._pool) < _POOL_LIMIT:
                    # dropped solo shells feed the free-list directly, so
                    # a sampled-out steady state stops allocating at all
                    self._pool.append(span)
                return
            # a deferred root whose trace gained only detached spans:
            # it was never counted, so buffer it without decrementing
        else:
            span._pending_state = None
            state[0] -= 1
        state[2].append(span)
        if not state[1] and self._should_retain(span):
            state[1] = True
        if len(self._pending) > _PENDING_LAG:
            self._drain_pending()

    def _drain_pending(self) -> None:
        """Finalize every settled pending trace: promote or drop.

        Dropped traces hand their span shells back to the free-list, so
        a sampled-out steady state allocates (almost) no Span objects —
        the pool bound keeps a burst of deep traces from pinning memory.
        """
        settled = [
            trace_id
            for trace_id, state in self._pending.items()
            if state[0] <= 0
        ]
        for trace_id in settled:
            state = self._pending.pop(trace_id)
            if state[1]:
                self._finished.extend(state[2])
                self._retained_ids.add(trace_id)
                self.tail_retained += 1
            else:
                budget = _POOL_LIMIT - len(self._pool)
                if budget > 0:
                    self._pool.extend(state[2][:budget])

    def _make_span(
        self,
        name: str,
        trace_id: str,
        parent_id: str,
        tags: dict[str, Any],
        sampled: bool,
    ) -> Span:
        """Build a span, reusing a recycled shell when one is available.

        Only spans of *dropped* unsampled traces enter the pool (see
        :meth:`_drain_pending`), so recorded spans are never mutated
        behind a reader's back; holding a span of a dropped trace past
        its settlement is not part of the API contract.
        """
        span_id = f"span-{next(self._span_ids):04d}"
        if self._pool:
            span = self._pool.pop()
            span.name = name
            span.trace_id = trace_id
            span.span_id = span_id
            span.parent_id = parent_id
            span.tags = tags
            span.start = 0.0
            span.end = None
            span.sampled = sampled
            span._tracer = self
            span._pending_state = None
            return span
        return Span(
            name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            tags=tags,
            tracer=self,
            sampled=sampled,
        )

    def span(self, name: str, **tags: Any) -> Span:
        """Open a span as a context manager yielding the :class:`Span`.

        Nested calls inherit the enclosing span's ``trace_id`` and point
        their ``parent_id`` at it; a root span starts a fresh trace.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            index = next(self._trace_ids)
            trace_id = f"trace-{index:04d}"
            parent_id = ""
            sampled = True if self._sample_cut is None else self._decide(index)
            # An unsampled root defers registration: if no other span ever
            # joins the trace, it settles solo at close with no table
            # traffic at all — the dominant shape of sampled-out traffic.
            return self._make_span(name, trace_id, parent_id, tags, sampled)
        trace_id = parent.trace_id
        parent_id = parent.span_id
        sampled = parent.sampled
        span = self._make_span(name, trace_id, parent_id, tags, sampled)
        if not sampled:
            state = parent._pending_state
            if state is None:
                # first company for a deferred root: register the trace
                # late and count the still-open root alongside the child
                state = self._pending.get(trace_id)
                if state is None:
                    state = self._pending[trace_id] = [0, False, []]
                state[0] += 1
                parent._pending_state = state
            state[0] += 1
            span._pending_state = state
        return span

    def span_from_context(
        self, name: str, context: TraceContext | None, **tags: Any
    ) -> Span:
        """Open a span continuing a trace shipped from another component.

        The span joins *context*'s trace with its ``parent_id`` pointing
        at the remote span — the receiving half of trace propagation: a
        gateway relay handler (or MTA) opens its work under the origin's
        trace instead of starting a fresh one.  Spans nested inside
        inherit normally.  A ``None`` context degrades to :meth:`span`
        (the sender had no tracing on).
        """
        if context is None:
            return self.span(name, **tags)
        sampled = context.sampled
        span = self._make_span(
            name, context.trace_id, context.span_id, tags, sampled
        )
        if not sampled:
            self._register_unsampled(span, context.trace_id)
        return span

    def current_context(self) -> TraceContext | None:
        """The innermost open span's identity, ready to serialize.

        ``None`` when no span is open — callers ship it as-is and the
        receiving side degrades gracefully (see :meth:`span_from_context`).
        """
        if not self._stack:
            return None
        top = self._stack[-1]
        return TraceContext(
            trace_id=top.trace_id, span_id=top.span_id, sampled=top.sampled
        )

    def start_span(
        self,
        name: str,
        context: TraceContext | None = None,
        **tags: Any,
    ) -> Span:
        """Start a *detached* span: clocked now, finished by :meth:`finish`.

        Detached spans never touch the nesting stack, so they are the
        right shape for asynchronous operations — a gateway relay or MTA
        transfer whose completion callback fires many events later, with
        unrelated spans opening and closing in between.  With *context*
        the span continues that trace; without, it parents under the
        currently open span (or roots a fresh trace).
        """
        if context is None:
            context = self.current_context()
        if context is None:
            index = next(self._trace_ids)
            trace_id = f"trace-{index:04d}"
            parent_id = ""
            sampled = True if self._sample_cut is None else self._decide(index)
        else:
            trace_id = context.trace_id
            parent_id = context.span_id
            sampled = context.sampled
        span = self._make_span(name, trace_id, parent_id, tags, sampled)
        if not sampled:
            self._register_unsampled(span, trace_id)
        span.start = self._clock()
        return span

    def finish(self, span: Span) -> Span:
        """Close a detached span from :meth:`start_span` (idempotent)."""
        if span.end is None:
            span.end = self._clock()
            if span.sampled:
                self._finished.append(span)
            else:
                self._close_unsampled(span)
        return span

    def finished(self) -> list[Span]:
        """All closed spans, in completion order.

        Settled unsampled-but-retained traces are swept in first, so a
        post-run reader never misses a promoted trace that had not hit
        the lazy drain threshold yet.
        """
        if self._pending:
            self._drain_pending()
        return list(self._finished)

    def drain(self) -> list[Span]:
        """Consume all closed spans: return them and clear the buffer.

        The exporter-loop primitive: a periodic in-process exporter
        calls ``drain()``, ships the batch, and releases the shells, so
        a long run holds memory proportional to the drain period rather
        than to its total span volume.  Unlike :meth:`reset` the id
        counters keep running, so draining never perturbs determinism.
        """
        if self._pending:
            self._drain_pending()
        spans = self._finished
        self._finished = []
        return spans

    def reset(self, ids: bool = False) -> None:
        """Forget finished spans (open spans are unaffected).

        By default the trace/span id counters keep running, so ids stay
        unique across resets within one run.  ``reset(ids=True)``
        restarts them too — required for determinism when a reseeded run
        reuses the tracer: a reset-with-ids tracer emits exactly the ids
        a fresh one would.
        """
        self._finished.clear()
        self._pending.clear()
        self._retained_ids.clear()
        self.sampled_in = 0
        self.sampled_out = 0
        self.tail_retained = 0
        if ids:
            self._trace_ids = itertools.count(1)
            self._span_ids = itertools.count(1)


class _NullSpanContext:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


class _NullSpan(Span):
    """The shared inert span handed out when tracing is disabled."""

    __slots__ = ()

    def tag(self, **tags: Any) -> "Span":
        """Discard the tags."""
        return self


class NullTracer(Tracer):
    """The default, disabled tracer: ``enabled`` is ``False``.

    ``enabled`` is the one off-switch: every write (``start_span``,
    ``finish``, ``bind_clock``, ``drain``) checks it first, so nothing
    records here.  This tracer exists only to be bound; the cold sites
    that open spans without checking get the shared no-op context
    manager from ``span``/``span_from_context``, whose span discards its
    tags, so the disabled path allocates nothing.
    """

    enabled = False

    __slots__ = ("_null_context",)

    def __init__(self) -> None:
        super().__init__()
        self._null_context = _NullSpanContext()

    def span(self, name: str, **tags: Any) -> Span:
        """Return the shared no-op context manager."""
        return self._null_context  # type: ignore[return-value]

    def span_from_context(
        self, name: str, context: TraceContext | None, **tags: Any
    ) -> Span:
        """Return the shared no-op context manager (context discarded)."""
        return self._null_context  # type: ignore[return-value]

    def current_context(self) -> TraceContext | None:
        """A disabled tracer has no trace to propagate."""
        return None


#: the span yielded by a disabled tracer (empty ids, inert tag());
#: ``sampled=False`` so per-span enrichment guarded on ``span.sampled``
#: (shard resolution, relay re-stamps) costs nothing when tracing is off
NULL_SPAN = _NullSpan("", trace_id="", span_id="", sampled=False)

#: the shared disabled tracer every component starts with
NULL_TRACER = NullTracer()
