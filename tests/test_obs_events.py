"""Tests for repro.obs.events: the bounded, trace-correlated event log."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    KIND_BREAKER_OPEN,
    KIND_DEAD_LETTER,
    KIND_SHED,
    NULL_EVENTS,
    Event,
    EventLog,
    NullEventLog,
)
from repro.util.errors import ConfigurationError


class TestEventLog:
    def test_records_in_arrival_order_with_attrs(self):
        log = EventLog()
        log.record(1.0, KIND_BREAKER_OPEN, trace_id="trace-0001", streak=3)
        log.record(2.5, KIND_SHED, receiver="bob")
        events = log.events()
        assert [event.kind for event in events] == [KIND_BREAKER_OPEN, KIND_SHED]
        assert events[0].trace_id == "trace-0001"
        assert events[0].attrs == {"streak": 3}
        assert events[1].time == 2.5

    def test_capacity_evicts_oldest_and_counts_drops(self):
        log = EventLog(capacity=2)
        for index in range(5):
            log.record(float(index), KIND_SHED, n=index)
        assert [event.attrs["n"] for event in log.events()] == [3, 4]
        assert log.recorded == 5
        assert log.dropped == 3

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_filters_by_kind_and_trace(self):
        log = EventLog()
        log.record(0.0, KIND_SHED, trace_id="t1")
        log.record(1.0, KIND_DEAD_LETTER, trace_id="t1")
        log.record(2.0, KIND_SHED, trace_id="t2")
        assert len(log.events(kind=KIND_SHED)) == 2
        assert len(log.events(trace_id="t1")) == 2
        assert len(log.events(kind=KIND_SHED, trace_id="t1")) == 1

    def test_kinds_histogram_is_sorted(self):
        log = EventLog()
        log.record(0.0, "zeta")
        log.record(0.0, "alpha")
        log.record(0.0, "zeta")
        assert list(log.kinds().items()) == [("alpha", 1), ("zeta", 2)]

    def test_to_dicts_and_clear(self):
        log = EventLog()
        log.record(3.0, KIND_SHED, trace_id="t", n=1)
        [blob] = log.to_dicts()
        assert blob == {
            "time": 3.0,
            "kind": KIND_SHED,
            "trace_id": "t",
            "attrs": {"n": 1},
        }
        log.clear()
        assert log.events() == [] and log.recorded == 0

    def test_extend_merges_prebuilt_events(self):
        source = EventLog()
        source.record(0.0, KIND_SHED)
        merged = EventLog()
        merged.extend(source.events())
        merged.record(1.0, KIND_DEAD_LETTER)
        assert [event.kind for event in merged.events()] == [
            KIND_SHED,
            KIND_DEAD_LETTER,
        ]

    def test_events_are_frozen(self):
        event = Event(time=0.0, kind=KIND_SHED)
        with pytest.raises(AttributeError):
            event.kind = "other"


class TestNullEventLog:
    def test_shared_null_instance(self):
        assert isinstance(NULL_EVENTS, NullEventLog)
        assert NULL_EVENTS.enabled is False
        assert NULL_EVENTS.events() == []
