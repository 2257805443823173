"""Activities: the unit of cooperative work.

Paper section 3 gives the running example — managing a large engineering
project is "an on-going programme of sub-activities such as team progress
meetings, the joint production of reports, monitoring and interviews as
well as more ad-hoc, informal communication".  An :class:`Activity` has a
goal, a lifecycle, members playing activity roles, optional deadline, and
belongs to a project.  Section 4's activity services (membership,
scheduling, negotiation, coordination) are built on top in the sibling
modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.errors import ConfigurationError, ModelError, UnknownObjectError


class ActivityStatus(Enum):
    """Lifecycle of an activity."""

    PENDING = "pending"
    ACTIVE = "active"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


#: legal lifecycle transitions
_TRANSITIONS: dict[ActivityStatus, set[ActivityStatus]] = {
    ActivityStatus.PENDING: {ActivityStatus.ACTIVE, ActivityStatus.CANCELLED},
    ActivityStatus.ACTIVE: {
        ActivityStatus.SUSPENDED,
        ActivityStatus.COMPLETED,
        ActivityStatus.CANCELLED,
    },
    ActivityStatus.SUSPENDED: {ActivityStatus.ACTIVE, ActivityStatus.CANCELLED},
    ActivityStatus.COMPLETED: set(),
    ActivityStatus.CANCELLED: set(),
}


@dataclass(frozen=True)
class Membership:
    """One person's participation in an activity under an activity role."""

    person_id: str
    activity_role: str


class Activity:
    """One cooperative activity with membership and lifecycle."""

    def __init__(
        self,
        activity_id: str,
        name: str,
        project: str = "",
        goal: str = "",
        deadline: float | None = None,
        mode: str = "asynchronous",
    ) -> None:
        if not activity_id or not name:
            raise ConfigurationError("activity needs an id and a name")
        if mode not in ("synchronous", "asynchronous", "mixed"):
            raise ConfigurationError(f"unknown activity mode {mode!r}")
        self.activity_id = activity_id
        self.name = name
        self.project = project
        self.goal = goal
        self.deadline = deadline
        self.mode = mode
        self.status = ActivityStatus.PENDING
        self._members: dict[str, Membership] = {}
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.progress: float = 0.0
        self.history: list[tuple[float, str]] = []

    # -- membership -----------------------------------------------------------
    def join(self, person_id: str, activity_role: str = "participant") -> Membership:
        """Add a member (re-joining updates the role)."""
        membership = Membership(person_id, activity_role)
        self._members[person_id] = membership
        return membership

    def leave(self, person_id: str) -> None:
        """Remove a member."""
        if person_id not in self._members:
            raise UnknownObjectError(f"{person_id!r} is not a member of {self.activity_id}")
        del self._members[person_id]

    def member_ids(self) -> list[str]:
        """Ids of all members, sorted."""
        return sorted(self._members)

    def is_member(self, person_id: str) -> bool:
        """True when the person participates."""
        return person_id in self._members

    def role_of(self, person_id: str) -> str:
        """The activity role a member plays."""
        try:
            return self._members[person_id].activity_role
        except KeyError:
            raise UnknownObjectError(
                f"{person_id!r} is not a member of {self.activity_id}"
            ) from None

    def members_with_role(self, activity_role: str) -> list[str]:
        """Person ids playing an activity role, sorted."""
        return sorted(
            m.person_id for m in self._members.values() if m.activity_role == activity_role
        )

    # -- lifecycle ---------------------------------------------------------------
    def _transition(self, target: ActivityStatus, time: float) -> None:
        if target not in _TRANSITIONS[self.status]:
            raise ModelError(
                f"activity {self.activity_id}: illegal transition "
                f"{self.status.value} -> {target.value}"
            )
        self.status = target
        self.history.append((time, target.value))

    def start(self, time: float = 0.0) -> None:
        """PENDING -> ACTIVE."""
        self._transition(ActivityStatus.ACTIVE, time)
        self.started_at = time

    def suspend(self, time: float = 0.0) -> None:
        """ACTIVE -> SUSPENDED."""
        self._transition(ActivityStatus.SUSPENDED, time)

    def resume(self, time: float = 0.0) -> None:
        """SUSPENDED -> ACTIVE."""
        self._transition(ActivityStatus.ACTIVE, time)

    def complete(self, time: float = 0.0) -> None:
        """ACTIVE -> COMPLETED."""
        self._transition(ActivityStatus.COMPLETED, time)
        self.finished_at = time
        self.progress = 1.0

    def cancel(self, time: float = 0.0) -> None:
        """Any non-final state -> CANCELLED."""
        self._transition(ActivityStatus.CANCELLED, time)
        self.finished_at = time

    def report_progress(self, fraction: float, time: float = 0.0) -> None:
        """Record progress in [0, 1]; only meaningful while active."""
        if not 0.0 <= fraction <= 1.0:
            raise ModelError("progress must be in [0, 1]")
        if self.status is not ActivityStatus.ACTIVE:
            raise ModelError(f"activity {self.activity_id} is not active")
        self.progress = fraction
        self.history.append((time, f"progress:{fraction:.2f}"))

    def is_overdue(self, now: float) -> bool:
        """True when a deadline exists, has passed, and work is unfinished."""
        if self.deadline is None:
            return False
        if self.status in (ActivityStatus.COMPLETED, ActivityStatus.CANCELLED):
            return False
        return now > self.deadline


class ActivityRegistry:
    """All activities known to one environment."""

    def __init__(self) -> None:
        self._activities: dict[str, Activity] = {}

    def create(self, activity: Activity) -> Activity:
        """Register a new activity."""
        if activity.activity_id in self._activities:
            raise ConfigurationError(f"activity {activity.activity_id!r} already exists")
        self._activities[activity.activity_id] = activity
        return activity

    def get(self, activity_id: str) -> Activity:
        """Look up an activity."""
        try:
            return self._activities[activity_id]
        except KeyError:
            raise UnknownObjectError(f"unknown activity {activity_id!r}") from None

    def all(self) -> list[Activity]:
        """All activities, in creation order."""
        return list(self._activities.values())

    def by_status(self, status: ActivityStatus) -> list[Activity]:
        """Activities currently in *status*."""
        return [a for a in self._activities.values() if a.status is status]

    def by_project(self, project: str) -> list[Activity]:
        """Activities belonging to *project*."""
        return [a for a in self._activities.values() if a.project == project]

    def involving(self, person_id: str) -> list[Activity]:
        """Activities the person is a member of ('each person may be
        involved in many activities' — paper section 3)."""
        return [a for a in self._activities.values() if a.is_member(person_id)]
