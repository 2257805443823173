"""Coordination of activities: shared-resource access and joint steps.

Paper section 4 lists "sharing resources between activities" and
"coordination of activities" among the required activity services.  The
:class:`ResourceCoordinator` grants bounded-capacity resource claims with
deterministic FIFO queuing; the :class:`Barrier` synchronises a set of
activities at a joint point (e.g. all sub-reports finished before the
review meeting starts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.org.model import Resource
from repro.util.errors import ModelError, UnknownObjectError

GrantCallback = Callable[[str], None]


@dataclass
class _Claim:
    activity_id: str
    on_grant: GrantCallback | None = None


class ResourceCoordinator:
    """Grants resource capacity to activities, queueing the overflow.

    "Activities may use common resources" (paper section 3): each resource
    has a capacity; an activity's claim is granted immediately while
    capacity remains, otherwise it queues FIFO and is granted when a
    holder releases.
    """

    def __init__(self) -> None:
        self._resources: dict[str, Resource] = {}
        self._holders: dict[str, list[str]] = {}
        self._queues: dict[str, deque[_Claim]] = {}
        self.grants = 0
        self.queued = 0

    def register(self, resource: Resource) -> None:
        """Make a resource coordinatable."""
        if resource.resource_id in self._resources:
            raise ModelError(f"resource {resource.resource_id!r} already registered")
        self._resources[resource.resource_id] = resource
        self._holders[resource.resource_id] = []
        self._queues[resource.resource_id] = deque()

    def _check(self, resource_id: str) -> Resource:
        try:
            return self._resources[resource_id]
        except KeyError:
            raise UnknownObjectError(f"unknown resource {resource_id!r}") from None

    def claim(
        self, resource_id: str, activity_id: str, on_grant: GrantCallback | None = None
    ) -> bool:
        """Claim one unit of the resource for an activity.

        Returns True when granted immediately; False when queued (the
        callback fires on the eventual grant).  Double claims by the same
        activity are rejected.
        """
        resource = self._check(resource_id)
        holders = self._holders[resource_id]
        if activity_id in holders:
            raise ModelError(f"activity {activity_id!r} already holds {resource_id!r}")
        if any(c.activity_id == activity_id for c in self._queues[resource_id]):
            raise ModelError(f"activity {activity_id!r} is already queued for {resource_id!r}")
        if len(holders) < resource.capacity:
            holders.append(activity_id)
            self.grants += 1
            if on_grant is not None:
                on_grant(resource_id)
            return True
        self._queues[resource_id].append(_Claim(activity_id, on_grant))
        self.queued += 1
        return False

    def release(self, resource_id: str, activity_id: str) -> None:
        """Release a held unit; the head of the queue (if any) is granted."""
        self._check(resource_id)
        holders = self._holders[resource_id]
        if activity_id not in holders:
            raise ModelError(f"activity {activity_id!r} does not hold {resource_id!r}")
        holders.remove(activity_id)
        queue = self._queues[resource_id]
        if queue:
            claim = queue.popleft()
            holders.append(claim.activity_id)
            self.grants += 1
            if claim.on_grant is not None:
                claim.on_grant(resource_id)

    def holders_of(self, resource_id: str) -> list[str]:
        """Activities currently holding the resource."""
        self._check(resource_id)
        return list(self._holders[resource_id])

    def queue_length(self, resource_id: str) -> int:
        """Number of activities waiting for the resource."""
        self._check(resource_id)
        return len(self._queues[resource_id])

    def withdraw_claim(self, resource_id: str, activity_id: str) -> bool:
        """Remove a queued (not yet granted) claim; True when found."""
        self._check(resource_id)
        queue = self._queues[resource_id]
        for claim in list(queue):
            if claim.activity_id == activity_id:
                queue.remove(claim)
                return True
        return False


@dataclass
class Barrier:
    """A joint synchronisation point across activities.

    Created with the set of parties that must arrive; fires its callbacks
    exactly once when the last one arrives.
    """

    parties: frozenset[str]
    _arrived: set[str] = field(default_factory=set)
    _callbacks: list[Callable[[], None]] = field(default_factory=list)
    fired: bool = False

    def __post_init__(self) -> None:
        if not self.parties:
            raise ModelError("a barrier needs at least one party")

    def on_complete(self, callback: Callable[[], None]) -> None:
        """Register a callback for when every party has arrived."""
        self._callbacks.append(callback)

    def arrive(self, party: str) -> bool:
        """Mark a party as arrived; returns True when the barrier fires."""
        if party not in self.parties:
            raise ModelError(f"{party!r} is not a party to this barrier")
        if self.fired:
            return False
        self._arrived.add(party)
        if self._arrived == set(self.parties):
            self.fired = True
            for callback in self._callbacks:
                callback()
            return True
        return False

    def waiting_for(self) -> list[str]:
        """Parties that have not arrived yet."""
        return sorted(set(self.parties) - self._arrived)
