"""Deterministic span exporters: Chrome trace viewer and JSONL.

Two zero-dependency span export formats for seeded runs:

* :func:`to_chrome_trace` — the Chrome trace-viewer / Perfetto JSON
  format (``chrome://tracing``, https://ui.perfetto.dev): one complete
  ("ph": "X") event per finished span, microsecond timestamps on the
  simulated clock, one pid per trace so multi-trace dumps render as
  separate process lanes,
* :func:`to_jsonl` — one JSON object per span per line, the shape log
  pipelines ingest.

A metrics export is :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`,
a JSON-able dict.

Everything is sorted and derived from span content only — no wall
clock, no randomness — so a seeded run exports byte-identical files.

>>> from repro.obs.tracing import Tracer
>>> tracer = Tracer()
>>> with tracer.span("outer"):
...     with tracer.span("inner"):
...         pass
>>> blob = to_chrome_trace(tracer.finished())
>>> [e["name"] for e in blob["traceEvents"] if e["ph"] == "X"]
['outer', 'inner']
"""

from __future__ import annotations

import json
from typing import Any, Iterable

#: sim seconds -> chrome trace microseconds
_MICROS = 1_000_000.0


def _as_dict(span: Any) -> dict[str, Any]:
    """Normalise a Span object or an already-exported dict."""
    return span.to_dict() if hasattr(span, "to_dict") else dict(span)


def to_chrome_trace(spans: Iterable[Any]) -> dict[str, Any]:
    """Spans as a Chrome trace-viewer / Perfetto JSON document.

    Each finished span becomes one complete event; traces map to pids in
    first-appearance order (with a ``process_name`` metadata record each,
    so the viewer labels the lane with the trace id).  Timestamps are
    non-negative microseconds on the simulated clock; events are
    emitted in (ts, pid) order so the document is stable for diffing.
    """
    records = [_as_dict(span) for span in spans]
    pids: dict[str, int] = {}
    for record in records:
        pids.setdefault(record["trace_id"], len(pids) + 1)
    events: list[dict[str, Any]] = []
    for trace_id, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": trace_id},
            }
        )
    complete = []
    for record in records:
        if record["end"] is None:
            continue  # an open span has no duration yet
        start_us = max(record["start"], 0.0) * _MICROS
        complete.append(
            {
                "name": record["name"],
                "cat": "sim",
                "ph": "X",
                "ts": start_us,
                "dur": max(record["duration"], 0.0) * _MICROS,
                "pid": pids[record["trace_id"]],
                "tid": 0,
                "args": {
                    "span_id": record["span_id"],
                    "parent_id": record["parent_id"],
                    **record["tags"],
                },
            }
        )
    # Longer events first at equal (ts, pid): enclosing spans precede
    # their children, and span_id settles exact ties deterministically.
    complete.sort(
        key=lambda event: (
            event["ts"],
            event["pid"],
            -event["dur"],
            event["args"]["span_id"],
        )
    )
    events.extend(complete)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Any]) -> str:
    """The Chrome trace document as a JSON string (sorted keys)."""
    return json.dumps(to_chrome_trace(spans), sort_keys=True, indent=2)


def to_jsonl(spans: Iterable[Any]) -> str:
    """Spans as JSONL: one sorted-key JSON object per line."""
    return "\n".join(
        json.dumps(_as_dict(span), sort_keys=True) for span in spans
    )
