"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, PeriodicTask
from repro.util.errors import SchedulingError


class TestEngine:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(2.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]

    def test_ties_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append("first"))
        engine.schedule(1.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(3.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.5]
        assert engine.now == 3.5

    def test_schedule_at_fires_at_the_exact_instant(self):
        """``now + (time - now)`` rounds: from 2**-53 it lands on 1.0."""
        engine = Engine()
        engine.schedule(2**-53, lambda: None)
        engine.run()
        target = 1 + 2**-52
        assert engine.now + (target - engine.now) != target
        seen = []
        engine.schedule_at(target, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [target]

    def test_schedule_at_in_the_past_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().schedule(-0.1, lambda: None)

    def test_cancel_prevents_execution(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_run_until_leaves_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.run_until(2.0)
        assert fired == ["a"]
        assert engine.now == 2.0
        assert engine.pending_count == 1

    def test_run_for_advances_relative(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run_for(1.0)
        engine.schedule(1.0, lambda: None)
        engine.run_for(1.0)
        assert engine.now == 2.0

    def test_events_scheduled_during_run_execute(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(1.0, lambda: order.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert order == ["outer", "inner"]

    def test_runaway_loop_guard(self):
        engine = Engine()

        def forever():
            engine.schedule(0.1, forever)

        engine.schedule(0.1, forever)
        with pytest.raises(SchedulingError):
            engine.run(max_events=100)

    def test_max_events_executes_at_most_the_limit(self):
        # regression: run(max_events=N) used to execute N+1 events
        engine = Engine()

        def forever():
            engine.schedule(0.1, forever)

        engine.schedule(0.1, forever)
        with pytest.raises(SchedulingError):
            engine.run(max_events=100)
        assert engine.processed_count == 100

    def test_max_events_equal_to_queue_size_is_fine(self):
        engine = Engine()
        for index in range(5):
            engine.schedule(float(index), lambda: None)
        assert engine.run(max_events=5) == 5

    def test_run_until_respects_max_events(self):
        engine = Engine()
        for index in range(6):
            engine.schedule(0.1 * index, lambda: None)
        with pytest.raises(SchedulingError):
            engine.run_until(10.0, max_events=3)
        assert engine.processed_count == 3
        engine2 = Engine()
        for index in range(3):
            engine2.schedule(0.1 * index, lambda: None)
        assert engine2.run_until(10.0, max_events=3) == 3

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_at(5.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_processed_count(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.processed_count == 2


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        engine = Engine()
        ticks = []
        task = PeriodicTask(engine, 1.0, lambda: ticks.append(engine.now)).start()
        engine.run_until(3.5)
        task.stop()
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_halts_firings(self):
        engine = Engine()
        ticks = []
        task = PeriodicTask(engine, 1.0, lambda: ticks.append(1)).start()
        engine.run_until(2.0)
        task.stop()
        engine.run_until(10.0)
        assert task.fired_count == 2

    def test_zero_period_rejected(self):
        with pytest.raises(SchedulingError):
            PeriodicTask(Engine(), 0.0, lambda: None)

    def test_raising_callback_does_not_stop_future_firings(self):
        # regression: one exception used to silently kill the task
        engine = Engine()
        ticks = []

        def flaky():
            ticks.append(engine.now)
            if len(ticks) == 2:
                raise RuntimeError("one bad poll")

        task = PeriodicTask(engine, 1.0, flaky).start()
        engine.run_until(4.5)
        task.stop()
        assert ticks == [1.0, 2.0, 3.0, 4.0]
        assert task.fired_count == 4
        assert task.error_count == 1

    def test_raising_callback_counted_in_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        engine = Engine()
        metrics = MetricsRegistry()
        engine.attach_metrics(metrics)

        def always_raises():
            raise RuntimeError("boom")

        task = PeriodicTask(engine, 1.0, always_raises).start()
        engine.run_until(3.0)
        task.stop()
        assert task.error_count == 3
        assert metrics.snapshot()["counters"]["sim.periodic.errors"] == 3

    def test_one_raising_firing_is_counted_once_by_the_engine(self):
        """The engine keeps one tally over all its tasks, which its
        registry reads; a raising firing adds exactly one there, and a
        detach and re-attach adds none."""
        from repro.obs.metrics import MetricsRegistry

        engine = Engine()
        metrics = MetricsRegistry()
        engine.attach_metrics(metrics)

        def errors() -> int:
            return metrics.snapshot()["counters"].get("sim.periodic.errors", 0)

        assert "sim.periodic.errors" not in metrics.snapshot()["counters"]
        raised = []

        def raises_once():
            if not raised:
                raised.append(engine.now)
                raise RuntimeError("one bad poll")

        quiet = PeriodicTask(engine, 1.0, lambda: None).start()
        flaky = PeriodicTask(engine, 1.0, raises_once).start()
        engine.run_until(1.5)
        assert (flaky.error_count, quiet.error_count, errors()) == (1, 0, 1)
        engine.attach_metrics(None)
        engine.attach_metrics(metrics)
        engine.run_until(3.5)
        assert (flaky.error_count, errors()) == (1, 1)
        flaky.stop()
        quiet.stop()
