"""Organisational awareness: who/what is relevant to my work right now.

Paper section 4 names "organisational (organisational awareness)" as the
first dimension transparency must serve, and section 3 paints the picture
of "many inter-related activities taking place within a world of shared
resources, people and information".  The :class:`AwarenessService`
answers the queries that make that world visible without the user having
to know how the models are wired:

* which activities are related to mine (through dependencies),
* which people share an activity with me and whether they are reachable
  right now,
* who is working with a given information object or resource.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity.model import ActivityStatus
from repro.environment.environment import CSCWEnvironment
from repro.util.errors import UnknownObjectError


@dataclass(frozen=True)
class ColleagueInfo:
    """One co-worker's awareness entry."""

    person_id: str
    shared_activities: tuple[str, ...]
    present: bool
    organisation: str


class AwarenessService:
    """Read-only awareness queries over one environment's models."""

    def __init__(self, environment: CSCWEnvironment) -> None:
        self._env = environment

    # -- activity awareness ------------------------------------------------
    def my_activities(self, person_id: str, active_only: bool = False) -> list[str]:
        """Activities the person participates in."""
        activities = self._env.activities.involving(person_id)
        if active_only:
            activities = [a for a in activities if a.status is ActivityStatus.ACTIVE]
        return sorted(a.activity_id for a in activities)

    def related_activities(self, person_id: str) -> list[str]:
        """Activities connected to mine by any dependency (not mine)."""
        mine = set(self.my_activities(person_id))
        related: set[str] = set()
        for activity_id in mine:
            related |= self._env.dependencies.related(activity_id)
        return sorted(related - mine)

    def activity_neighbourhood(self, activity_id: str) -> dict[str, list[str]]:
        """Everything one hop from an activity, grouped by link kind."""
        graph = self._env.dependencies
        self._env.activities.get(activity_id)
        return {
            "predecessors": graph.predecessors(activity_id),
            "successors": graph.successors(activity_id),
            "shares_resources_with": graph.resource_partners(activity_id),
            "shares_information_with": graph.information_partners(activity_id),
        }

    # -- people awareness -----------------------------------------------------
    def colleagues_of(self, person_id: str) -> list[ColleagueInfo]:
        """People sharing at least one activity, with reachability."""
        mine = set(self.my_activities(person_id))
        shared: dict[str, set[str]] = {}
        for activity_id in mine:
            activity = self._env.activities.get(activity_id)
            for member in activity.member_ids():
                if member != person_id:
                    shared.setdefault(member, set()).add(activity_id)
        result = []
        for colleague, activities in sorted(shared.items()):
            try:
                present = self._env.communicators.get(colleague).present
            except UnknownObjectError:
                present = False
            try:
                organisation = self._env.knowledge_base.organisation_of(colleague)
            except UnknownObjectError:
                organisation = ""
            result.append(
                ColleagueInfo(colleague, tuple(sorted(activities)), present, organisation)
            )
        return result

    def reachable_now(self, person_id: str) -> list[str]:
        """Colleagues present at their workstations right now."""
        return [c.person_id for c in self.colleagues_of(person_id) if c.present]

    # -- artifact awareness -------------------------------------------------------
    def who_works_with(self, object_id: str) -> list[str]:
        """People in activities that share the given information object.

        Uses the dependency annotations of SHARES_INFORMATION edges plus
        the information base's derivation links.
        """
        people: set[str] = set()
        from repro.activity.dependencies import SHARES_INFORMATION

        for dependency in self._env.dependencies.of_kind(SHARES_INFORMATION):
            if dependency.annotation == object_id:
                for activity_id in (dependency.source, dependency.target):
                    activity = self._env.activities.get(activity_id)
                    people.update(activity.member_ids())
        return sorted(people)
