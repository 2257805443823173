"""Trace analysis: reassemble span trees, extract critical paths.

A cross-domain exchange leaves spans behind in *every* domain it
touched (origin, gateway objects, failover intermediates, the target
pipeline).  The :class:`TraceAnalyzer` puts them back together: feed it
the finished spans of one or more tracers and it groups them by
``trace_id``, links children to parents by ``span_id``, and answers the
questions the acceptance experiments ask —

* is this trace **connected**: one root, every span reachable from it?
* what is the **critical path**: the root-to-leaf chain that determined
  when the operation finished, with per-hop latency breakdown?
* which traces were the **slowest** end to end?

All inputs are Span objects or their ``to_dict()`` form; all outputs
are plain sorted data, deterministic for seeded runs.

>>> from repro.obs.tracing import Tracer
>>> tracer = Tracer()
>>> with tracer.span("outer"):
...     with tracer.span("inner"):
...         pass
>>> analyzer = TraceAnalyzer(tracer.finished())
>>> analyzer.is_connected(analyzer.trace_ids()[0])
True
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.export import _as_dict
from repro.util.errors import ConfigurationError


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly-overlapping intervals."""
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


class TraceAnalyzer:
    """Cross-tracer span reassembly and critical-path extraction."""

    def __init__(self, spans: Iterable[Any] = ()) -> None:
        #: trace_id -> spans in ingestion order
        self._traces: dict[str, list[dict[str, Any]]] = {}
        self.add(spans)

    @classmethod
    def from_tracers(cls, *tracers: Any) -> "TraceAnalyzer":
        """An analyzer over the finished spans of several tracers.

        The multi-domain case: each domain's tracer contributes the
        spans it recorded locally; the shared trace ids stitch them.
        """
        analyzer = cls()
        for tracer in tracers:
            analyzer.add(tracer.finished())
        return analyzer

    def add(self, spans: Iterable[Any]) -> "TraceAnalyzer":
        """Ingest more spans (open spans are skipped); returns self."""
        for span in spans:
            record = _as_dict(span)
            if record["end"] is None:
                continue
            self._traces.setdefault(record["trace_id"], []).append(record)
        return self

    # -- structure ---------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """All trace ids, in first-appearance order."""
        return list(self._traces)

    def spans(self, trace_id: str) -> list[dict[str, Any]]:
        """One trace's spans, in ingestion order."""
        try:
            return list(self._traces[trace_id])
        except KeyError:
            raise ConfigurationError(f"unknown trace {trace_id!r}") from None

    def roots(self, trace_id: str) -> list[dict[str, Any]]:
        """Spans with no (known) parent — a connected trace has one."""
        records = self.spans(trace_id)
        known = {record["span_id"] for record in records}
        return [
            record
            for record in records
            if not record["parent_id"] or record["parent_id"] not in known
        ]

    def children(self, trace_id: str, span_id: str) -> list[dict[str, Any]]:
        """Direct children of one span, ordered by (start, span_id)."""
        return sorted(
            (r for r in self.spans(trace_id) if r["parent_id"] == span_id),
            key=lambda r: (r["start"], r["span_id"]),
        )

    def is_connected(self, trace_id: str) -> bool:
        """True when the trace has exactly one root and no orphans.

        This is the property gateway/envelope context propagation must
        preserve: a relay that *dropped* the context shows up here as a
        second root (the remote side started a fresh tree).
        """
        return len(self.roots(trace_id)) == 1

    # -- the critical path -------------------------------------------------
    def critical_path(self, trace_id: str) -> list[dict[str, Any]]:
        """The root-to-leaf chain that determined the trace's end time.

        From the root, repeatedly descend into the child that finished
        last (ties broken by latest start, then span_id — deterministic).
        The returned spans are ordered root first.
        """
        roots = self.roots(trace_id)
        if len(roots) != 1:
            raise ConfigurationError(
                f"trace {trace_id!r} has {len(roots)} roots; no single critical path"
            )
        path = [roots[0]]
        while True:
            kids = self.children(trace_id, path[-1]["span_id"])
            if not kids:
                return path
            path.append(
                max(kids, key=lambda r: (r["end"], r["start"], r["span_id"]))
            )

    def critical_path_coverage(self, trace_id: str) -> float:
        """Fraction of the root's duration the path below it accounts for.

        1.0 means every simulated second of the end-to-end operation is
        inside some descendant span on the critical path — nothing
        happened in untraced gaps.  A root with no children scores 1.0
        (the root explains itself).
        """
        path = self.critical_path(trace_id)
        root = path[0]
        duration = root["end"] - root["start"]
        if duration <= 0.0 or len(path) == 1:
            return 1.0
        intervals = [
            (max(r["start"], root["start"]), min(r["end"], root["end"]))
            for r in path[1:]
            if r["end"] > root["start"] and r["start"] < root["end"]
        ]
        return min(_interval_union(intervals) / duration, 1.0)

    def hop_latency(self, trace_id: str) -> list[dict[str, Any]]:
        """Per-hop breakdown along the critical path.

        Each entry carries the span's total ``duration`` plus its
        ``exclusive`` share — the time not explained by the next span
        down the path — so the slow hop in a multi-domain relay is
        directly readable.
        """
        path = self.critical_path(trace_id)
        breakdown = []
        for index, record in enumerate(path):
            duration = record["end"] - record["start"]
            exclusive = duration
            if index + 1 < len(path):
                nxt = path[index + 1]
                overlap = min(record["end"], nxt["end"]) - max(
                    record["start"], nxt["start"]
                )
                exclusive = duration - max(overlap, 0.0)
            breakdown.append(
                {
                    "name": record["name"],
                    "span_id": record["span_id"],
                    "start": record["start"],
                    "end": record["end"],
                    "duration": duration,
                    "exclusive": max(exclusive, 0.0),
                    "tags": dict(record["tags"]),
                }
            )
        return breakdown

    # -- ranking -----------------------------------------------------------
    def duration(self, trace_id: str) -> float:
        """End-to-end duration: latest end minus earliest start."""
        records = self.spans(trace_id)
        return max(r["end"] for r in records) - min(r["start"] for r in records)

    def top_slowest(self, k: int = 5) -> list[dict[str, Any]]:
        """The *k* slowest traces by end-to-end duration, slowest first."""
        ranked = sorted(
            (
                {
                    "trace_id": trace_id,
                    "duration": self.duration(trace_id),
                    "spans": len(self.spans(trace_id)),
                    "connected": self.is_connected(trace_id),
                }
                for trace_id in self._traces
            ),
            key=lambda entry: (-entry["duration"], entry["trace_id"]),
        )
        return ranked[:k]

    def summary(self) -> dict[str, Any]:
        """Corpus-level counts: traces, spans, connectivity."""
        connected = sum(1 for t in self._traces if self.is_connected(t))
        return {
            "traces": len(self._traces),
            "spans": sum(len(spans) for spans in self._traces.values()),
            "connected": connected,
            "disconnected": len(self._traces) - connected,
        }
