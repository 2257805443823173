"""Cooperation sessions: activity-scoped, multi-application workspaces.

A :class:`CooperationSession` binds one activity to the people and
applications cooperating in it, wiring activity-transparent event
subscriptions (members only hear their own activity's events) and serving
as the handle through which examples and experiments drive multi-app
cooperation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.environment.environment import (
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.transparency import TransparencyProfile
from repro.util.errors import ModelError
from repro.util.events import Event

EventHandler = Callable[[Event], None]


@dataclass
class SessionMember:
    """One participant: their person id and the application they use."""

    person_id: str
    app_name: str
    subscriptions: list[int] = field(default_factory=list)


class CooperationSession:
    """One activity's live cooperation context."""

    def __init__(self, environment: CSCWEnvironment, activity_id: str) -> None:
        self.environment = environment
        self.activity = environment.activities.get(activity_id)
        self._members: dict[str, SessionMember] = {}

    @property
    def activity_id(self) -> str:
        """The bound activity's id."""
        return self.activity.activity_id

    def join(
        self,
        person_id: str,
        app_name: str,
        on_event: EventHandler | None = None,
        activity_role: str = "participant",
    ) -> SessionMember:
        """Join the session with an application.

        The member is added to the activity, and — activity transparency —
        subscribed only to this activity's topics.
        """
        if person_id in self._members:
            raise ModelError(f"{person_id!r} already in session {self.activity_id}")
        if not self.environment.applications.is_registered(app_name):
            raise ModelError(f"application {app_name!r} is not registered")
        self.activity.join(person_id, activity_role)
        member = SessionMember(person_id, app_name)
        if on_event is not None:
            token = self.environment.bus.subscribe(
                f"activity/{self.activity_id}", on_event, subscriber=person_id
            )
            member.subscriptions.append(token)
        self._members[person_id] = member
        return member

    def leave(self, person_id: str) -> None:
        """Leave the session, dropping subscriptions and membership."""
        member = self._members.pop(person_id, None)
        if member is None:
            raise ModelError(f"{person_id!r} is not in session {self.activity_id}")
        for token in member.subscriptions:
            self.environment.bus.unsubscribe(token)
        self.activity.leave(person_id)

    def members(self) -> list[str]:
        """Session members, sorted."""
        return sorted(self._members)

    def app_of(self, person_id: str) -> str:
        """Which application a member uses."""
        try:
            return self._members[person_id].app_name
        except KeyError:
            raise ModelError(f"{person_id!r} is not in session {self.activity_id}") from None

    def send(
        self,
        sender: str,
        receiver: str,
        document: dict[str, Any],
        profile: TransparencyProfile | None = None,
    ) -> ExchangeOutcome:
        """Exchange a document between two members' applications."""
        return self.environment.exchange(ExchangeRequest(
            sender=sender,
            receiver=receiver,
            sender_app=self.app_of(sender),
            receiver_app=self.app_of(receiver),
            document=document,
            activity_id=self.activity_id,
            profile=profile,
        ))

    def broadcast(
        self,
        sender: str,
        document: dict[str, Any],
        profile: TransparencyProfile | None = None,
    ) -> list[ExchangeOutcome]:
        """Send to every other member; returns per-receiver outcomes."""
        outcomes = []
        for receiver in self.members():
            if receiver == sender:
                continue
            outcomes.append(self.send(sender, receiver, document, profile=profile))
        return outcomes

    def announce(self, payload: dict[str, Any], source: str = "") -> int:
        """Publish an activity-scoped event (no document delivery)."""
        return self.environment.bus.publish(
            f"activity/{self.activity_id}/announce",
            payload,
            source=source,
            time=self.environment.world.now,
        )
