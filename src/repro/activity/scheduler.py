"""Scheduling and monitoring of activities.

Paper section 4, "Support for Activities": the environment should provide
"scheduling activities and monitoring the progress of activities".  The
:class:`ActivityScheduler` starts activities in dependency order as their
predecessors complete; the :class:`ActivityMonitor` watches deadlines and
stalled progress on simulated time and publishes alerts on the event bus
under ``activity/<id>/alert`` topics (so alerts respect activity
transparency scoping).
"""

from __future__ import annotations

from typing import Callable

from repro.activity.dependencies import DependencyGraph
from repro.activity.model import Activity, ActivityRegistry, ActivityStatus
from repro.sim.engine import PeriodicTask
from repro.sim.world import World
from repro.util.errors import ModelError
from repro.util.events import EventBus


class ActivityScheduler:
    """Starts activities when their ordering predecessors have completed."""

    def __init__(
        self,
        registry: ActivityRegistry,
        dependencies: DependencyGraph,
        bus: EventBus | None = None,
    ) -> None:
        self._registry = registry
        self._dependencies = dependencies
        self._bus = bus
        self.auto_started = 0

    def ready_to_start(self, activity_id: str) -> bool:
        """True when pending and every ordering predecessor is completed."""
        activity = self._registry.get(activity_id)
        if activity.status is not ActivityStatus.PENDING:
            return False
        for predecessor in self._dependencies.predecessors(activity_id):
            if self._registry.get(predecessor).status is not ActivityStatus.COMPLETED:
                return False
        return True

    def start_ready(self, now: float) -> list[str]:
        """Start every pending activity whose predecessors are done."""
        started = []
        for activity in self._registry.by_status(ActivityStatus.PENDING):
            if self.ready_to_start(activity.activity_id):
                activity.start(now)
                started.append(activity.activity_id)
                self.auto_started += 1
                self._announce(activity, "started", now)
        return started

    def complete(self, activity_id: str, now: float) -> list[str]:
        """Complete an activity, then start anything it unblocked.

        Returns the newly started activity ids.
        """
        activity = self._registry.get(activity_id)
        activity.complete(now)
        self._announce(activity, "completed", now)
        return self.start_ready(now)

    def plan(self, activity_ids: list[str] | None = None) -> list[str]:
        """A full execution order for the given (or all) activities."""
        ids = activity_ids if activity_ids is not None else [
            a.activity_id for a in self._registry.all()
        ]
        return self._dependencies.execution_order(ids)

    def _announce(self, activity: Activity, what: str, now: float) -> None:
        if self._bus is not None:
            self._bus.publish(
                f"activity/{activity.activity_id}/lifecycle",
                {"event": what, "activity": activity.activity_id},
                source="scheduler",
                time=now,
            )


class ActivityMonitor:
    """Periodic watchdog over deadlines and stalled activities."""

    def __init__(
        self,
        world: World,
        registry: ActivityRegistry,
        bus: EventBus,
        period_s: float = 60.0,
        stall_after_s: float = 600.0,
    ) -> None:
        if period_s <= 0 or stall_after_s <= 0:
            raise ModelError("monitor periods must be positive")
        self._world = world
        self._registry = registry
        self._bus = bus
        self._period_s = period_s
        self._stall_after_s = stall_after_s
        self._last_progress: dict[str, tuple[float, float]] = {}
        self._task: PeriodicTask | None = None
        self.alerts_raised = 0

    def start(self) -> "ActivityMonitor":
        """Begin periodic checking; returns self."""
        self._task = PeriodicTask(self._world.engine, self._period_s, self.check_now).start()
        return self

    def stop(self) -> None:
        """Stop checking."""
        if self._task is not None:
            self._task.stop()

    def check_now(self) -> list[dict]:
        """Run one check pass; returns the alerts raised."""
        now = self._world.now
        alerts = []
        for activity in self._registry.all():
            if activity.is_overdue(now):
                alerts.append(self._alert(activity, "overdue", now))
            if activity.status is ActivityStatus.ACTIVE:
                previous = self._last_progress.get(activity.activity_id)
                if previous is not None:
                    last_time, last_value = previous
                    stalled = (
                        activity.progress == last_value
                        and now - last_time >= self._stall_after_s
                    )
                    if stalled:
                        alerts.append(self._alert(activity, "stalled", now))
                        self._last_progress[activity.activity_id] = (now, activity.progress)
                else:
                    self._last_progress[activity.activity_id] = (now, activity.progress)
                if previous is not None and activity.progress != previous[1]:
                    self._last_progress[activity.activity_id] = (now, activity.progress)
        return alerts

    def _alert(self, activity: Activity, reason: str, now: float) -> dict:
        alert = {"activity": activity.activity_id, "reason": reason, "time": now}
        self.alerts_raised += 1
        self._bus.publish(
            f"activity/{activity.activity_id}/alert", alert, source="monitor", time=now
        )
        return alert


Callback = Callable[[], None]
