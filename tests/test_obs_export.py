"""Tests for repro.obs.export: Chrome trace and JSONL dumps.

Acceptance bar (ISSUE 5): the Chrome trace export round-trips through
``json.loads`` with monotonic, non-negative timestamps, and exports are
deterministic for seeded runs.
"""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_trace_json,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine


def traced_run() -> Tracer:
    """A deterministic two-trace workload on the simulated clock."""
    engine = Engine()
    tracer = Tracer()
    tracer.bind_engine(engine)
    with tracer.span("exchange", who="ana"):
        engine.schedule(1.5, lambda: None)
        with tracer.span("relay"):
            engine.run()
    with tracer.span("probe"):
        pass
    return tracer


class TestChromeTrace:
    def test_round_trips_through_json_loads(self):
        blob = json.loads(chrome_trace_json(traced_run().finished()))
        assert blob["displayTimeUnit"] == "ms"
        names = [e["name"] for e in blob["traceEvents"] if e["ph"] == "X"]
        assert names == ["exchange", "relay", "probe"]

    def test_timestamps_monotonic_and_non_negative(self):
        blob = to_chrome_trace(traced_run().finished())
        complete = [e for e in blob["traceEvents"] if e["ph"] == "X"]
        stamps = [e["ts"] for e in complete]
        assert stamps == sorted(stamps)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)

    def test_negative_starts_are_clamped(self):
        span = {
            "name": "odd", "trace_id": "t", "span_id": "s", "parent_id": "",
            "start": -1.0, "end": 0.5, "duration": 1.5, "clock": "sim",
            "tags": {},
        }
        [event] = [
            e for e in to_chrome_trace([span])["traceEvents"] if e["ph"] == "X"
        ]
        assert event["ts"] == 0.0
        assert event["cat"] == "sim"

    def test_one_pid_per_trace_with_process_names(self):
        blob = to_chrome_trace(traced_run().finished())
        meta = [e for e in blob["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["trace-0001", "trace-0002"]
        assert [m["pid"] for m in meta] == [1, 2]
        complete = [e for e in blob["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {1, 2}

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        open_span = tracer.start_span("pending")
        with tracer.span("done"):
            pass
        blob = to_chrome_trace(list(tracer.finished()) + [open_span])
        names = [e["name"] for e in blob["traceEvents"] if e["ph"] == "X"]
        assert names == ["done"]

    def test_span_identity_travels_in_args(self):
        blob = to_chrome_trace(traced_run().finished())
        by_name = {
            e["name"]: e for e in blob["traceEvents"] if e["ph"] == "X"
        }
        relay = by_name["relay"]
        assert relay["args"]["parent_id"] == by_name["exchange"]["args"]["span_id"]
        assert by_name["exchange"]["args"]["who"] == "ana"

    def test_deterministic_across_identical_runs(self):
        assert chrome_trace_json(traced_run().finished()) == chrome_trace_json(
            traced_run().finished()
        )

    def test_export_writes_parseable_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace_json(traced_run().finished()), encoding="utf-8")
        blob = json.loads(path.read_text(encoding="utf-8"))
        assert any(e["ph"] == "X" for e in blob["traceEvents"])


class TestJsonlAndMetrics:
    def test_jsonl_one_object_per_line(self):
        lines = to_jsonl(traced_run().finished()).splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [record["name"] for record in parsed] == [
            "relay", "exchange", "probe",  # finish order
        ]

    def test_jsonl_export_handles_empty(self):
        assert to_jsonl([]) == ""
