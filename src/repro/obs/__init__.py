"""Observability: metrics, sim-clock tracing, and layer instrumentation.

The management/monitoring function RM-ODP's engineering viewpoint
prescribes, realised for this library: a process-local
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
fixed-bucket histograms, labelled families), a
:class:`~repro.obs.tracing.Tracer` whose spans are timed on the
*simulated* clock, and :mod:`repro.obs.instrument` hooks that wire both
into the hot layers (engine, event bus, trader, MTA, exchange path).
That registry class is the library's only one; ``World.metrics`` is
an instance too.

Everything is opt-in: components default to :data:`NULL_METRICS`,
:data:`NULL_TRACER` and :data:`NULL_EVENTS`, whose ``enabled`` is
``False``; that flag is the one off-switch, checked before every write.
The recommended way to switch collection on is the environment
builder::

    env = (CSCWEnvironment.builder()
           .with_world(world)
           .with_metrics(MetricsRegistry())
           .with_tracer(Tracer())
           .build())
"""

from repro.obs.analyze import TraceAnalyzer
from repro.obs.context import TRACE_KEY, TraceContext
from repro.obs.events import (
    NULL_EVENTS,
    Event,
    EventLog,
    NullEventLog,
)
from repro.obs.export import (
    chrome_trace_json,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.instrument import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    instrument_engine,
    instrument_event_bus,
    instrument_environment,
    instrument_mta,
    instrument_trader,
)
from repro.obs.metrics import (
    CARDINALITY_LIMIT,
    DEFAULT_BUCKETS,
    NULL_METRICS,
    OVERFLOW_LABEL,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.profile import Profile, layer_of, profile_spans
from repro.obs.slo import SLOEngine
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.windows import Window

__all__ = [
    "BYTES_BUCKETS",
    "CARDINALITY_LIMIT",
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "OVERFLOW_LABEL",
    "TRACE_KEY",
    "Counter",
    "CounterFamily",
    "Event",
    "EventLog",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "NullEventLog",
    "NullMetricsRegistry",
    "NullTracer",
    "Profile",
    "SLOEngine",
    "Span",
    "TraceAnalyzer",
    "TraceContext",
    "Tracer",
    "Window",
    "chrome_trace_json",
    "instrument_engine",
    "instrument_event_bus",
    "instrument_environment",
    "instrument_mta",
    "instrument_trader",
    "layer_of",
    "profile_spans",
    "to_chrome_trace",
    "to_jsonl",
]
