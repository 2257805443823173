"""Sim-time profiler: attribute span time to subsystem layers.

A span stream answers "what happened to this trace"; a profile answers
"where does the run's time go".  :class:`Profile` folds a stream of
finished spans (from :meth:`~repro.obs.tracing.Tracer.finished`, or
dicts from a JSONL export) into per-layer and per-path attributions:

* the **layer** of a span is its name's prefix before the first ``.``
  (``env.exchange`` -> ``env``, ``gateway.relay`` -> ``gateway``) — the
  subsystem naming convention every instrumented layer already follows,
* **total** time is the span's own duration,
* **self** (exclusive) time is the duration minus the parts covered by
  the span's children — computed as an interval union, so concurrent or
  overlapping children are never double-subtracted,
* a **path** is the tuple of span names from the trace root down to the
  span (``env.exchange_many > env.exchange``), the unit the hot-path
  ranking aggregates over.

Everything is derived from span content only and every table is sorted,
so a seeded run profiles byte-identically.

>>> from repro.obs.tracing import Tracer
>>> tracer = Tracer(clock=lambda: next(ticks))
>>> ticks = iter([0.0, 1.0, 3.0, 8.0])   # enter/enter/exit/exit
>>> with tracer.span("env.exchange"):
...     with tracer.span("gateway.relay"):
...         pass
>>> profile = Profile.from_spans(tracer.finished())
>>> [(row["layer"], row["self_s"], row["total_s"]) for row in profile.layers()]
[('env', 6.0, 8.0), ('gateway', 2.0, 2.0)]
>>> profile.hot_paths(2)[1]["path"]
'env.exchange > gateway.relay'
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.analyze import _interval_union
from repro.obs.export import _as_dict, to_chrome_trace

#: span-name layer separator: the prefix before the first one names the
#: owning subsystem (``env``, ``gateway``, ``mta``, ``control``, ...)
_LAYER_SEP = "."


def layer_of(name: str) -> str:
    """The subsystem layer a span name belongs to.

    >>> layer_of("env.exchange"), layer_of("flush")
    ('env', 'flush')
    """
    head, _, _ = name.partition(_LAYER_SEP)
    return head


class Profile:
    """Per-layer and per-path time attribution over a span stream."""

    def __init__(self) -> None:
        #: layer -> [span_count, total_s, self_s]
        self._layers: dict[str, list] = {}
        #: path tuple -> [span_count, total_s, self_s]
        self._paths: dict[tuple, list] = {}
        self._records: list[dict[str, Any]] = []
        self.spans = 0
        self.skipped_open = 0

    @classmethod
    def from_spans(cls, spans: Iterable[Any]) -> "Profile":
        """Build a profile from finished spans (objects or dicts).

        Open spans (``end is None``) carry no duration yet and are
        skipped, counted in :attr:`skipped_open`.
        """
        profile = cls()
        profile.add(spans)
        return profile

    def add(self, spans: Iterable[Any]) -> "Profile":
        """Fold more spans in (streams may arrive tracer by tracer)."""
        records = [_as_dict(span) for span in spans]
        # Children are grouped per trace: span ids are only unique within
        # the tracer that minted them, and parent links never cross traces.
        children: dict[tuple[str, str], list[dict[str, Any]]] = {}
        closed: list[dict[str, Any]] = []
        for record in records:
            if record["end"] is None:
                self.skipped_open += 1
                continue
            closed.append(record)
            if record["parent_id"]:
                key = (record["trace_id"], record["parent_id"])
                children.setdefault(key, []).append(record)
        by_id = {
            (record["trace_id"], record["span_id"]): record for record in closed
        }
        for record in closed:
            total = max(record["duration"], 0.0)
            own = children.get((record["trace_id"], record["span_id"]), ())
            covered = _interval_union(
                [
                    (max(child["start"], record["start"]),
                     min(child["end"], record["end"]))
                    for child in own
                    if child["end"] > record["start"]
                    and child["start"] < record["end"]
                ]
            )
            self_s = max(total - covered, 0.0)
            layer_cell = self._layers.setdefault(
                layer_of(record["name"]), [0, 0.0, 0.0]
            )
            layer_cell[0] += 1
            layer_cell[1] += total
            layer_cell[2] += self_s
            path = self._path_of(record, by_id)
            path_cell = self._paths.setdefault(path, [0, 0.0, 0.0])
            path_cell[0] += 1
            path_cell[1] += total
            path_cell[2] += self_s
            self.spans += 1
        self._records.extend(closed)
        return self

    @staticmethod
    def _path_of(
        record: dict[str, Any],
        by_id: "dict[tuple[str, str], dict[str, Any]]",
    ) -> tuple:
        """Root-to-span name path (cross-boundary parents may be absent:
        the path then starts at the first span this stream holds)."""
        names = [record["name"]]
        seen = {record["span_id"]}
        cursor = record
        while cursor["parent_id"]:
            parent = by_id.get((cursor["trace_id"], cursor["parent_id"]))
            if parent is None or parent["span_id"] in seen:
                break
            names.append(parent["name"])
            seen.add(parent["span_id"])
            cursor = parent
        return tuple(reversed(names))

    # -- tables ------------------------------------------------------------
    def layers(self) -> list[dict[str, Any]]:
        """Per-layer rows, sorted by self time (descending, then layer
        name for deterministic ties)."""
        rows = [
            {
                "layer": layer,
                "count": cell[0],
                "total_s": cell[1],
                "self_s": cell[2],
            }
            for layer, cell in self._layers.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["layer"]))
        return rows

    def hot_paths(self, k: int = 10) -> list[dict[str, Any]]:
        """The top-*k* root-to-span paths by self time."""
        rows = [
            {
                "path": " > ".join(path),
                "count": cell[0],
                "total_s": cell[1],
                "self_s": cell[2],
            }
            for path, cell in self._paths.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["path"]))
        return rows[:k]

    def render_text(self, k: int = 10) -> str:
        """The per-layer table plus the top-*k* hot paths as fixed-width
        text — the profiler's human-facing report."""
        lines = [f"layer profile (sim s, {self.spans} spans)"]
        lines.append(f"  {'layer':<12} {'count':>8} {'self':>12} {'total':>12}")
        for row in self.layers():
            lines.append(
                f"  {row['layer']:<12} {row['count']:>8} "
                f"{row['self_s']:>12.6f} {row['total_s']:>12.6f}"
            )
        hot = self.hot_paths(k)
        if hot:
            lines.append(f"hot paths (top {len(hot)} by self sim s)")
            for row in hot:
                lines.append(
                    f"  {row['self_s']:>12.6f} {row['count']:>8}x  {row['path']}"
                )
        return "\n".join(lines)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The profiled spans as a Chrome trace-viewer document — the
        flamegraph view of the same attribution (self time is what the
        viewer shows as a frame's un-nested remainder)."""
        return to_chrome_trace(self._records)


def profile_spans(spans: Iterable[Any]) -> Profile:
    """Shorthand: ``Profile.from_spans(spans)``."""
    return Profile.from_spans(spans)
