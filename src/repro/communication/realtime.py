"""Real-time (synchronous) communication sessions.

The "same time" half of the groupware matrix: a :class:`RealTimeSession`
fans every utterance out to all joined participants over the simulated
network, tracks presence, and offers optional floor control (one speaker
at a time — the desktop-conferencing discipline of systems like Shared X).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.communication.model import CommunicationContext, CommunicationLog, Exchange
from repro.sim.world import World
from repro.util.errors import ConfigurationError, ModelError
from repro.util.serialization import document_size

MessageHandler = Callable[[str, dict[str, Any]], None]


@dataclass
class _Participant:
    person_id: str
    node: str
    handler: MessageHandler


class RealTimeSession:
    """A synchronous multi-party session with fan-out delivery."""

    def __init__(
        self,
        world: World,
        session_id: str,
        log: CommunicationLog | None = None,
        context: CommunicationContext = CommunicationContext(),
        floor_controlled: bool = False,
    ) -> None:
        if not session_id:
            raise ConfigurationError("session needs an id")
        self._world = world
        self.session_id = session_id
        self._log = log
        self._context = context
        self.floor_controlled = floor_controlled
        self._participants: dict[str, _Participant] = {}
        self._floor_holder: str | None = None
        self._floor_queue: deque[str] = deque()
        self.utterances = 0

    # -- membership -----------------------------------------------------------
    def join(self, person_id: str, node: str, handler: MessageHandler) -> None:
        """Join the session; *handler*(sender, payload) receives messages."""
        if person_id in self._participants:
            raise ModelError(f"{person_id!r} already joined session {self.session_id}")
        port = self._port(person_id)
        self._world.network.node(node).bind(
            port, lambda packet: handler(packet.payload["sender"], packet.payload["body"])
        )
        self._participants[person_id] = _Participant(person_id, node, handler)

    def leave(self, person_id: str) -> None:
        """Leave the session; releases the floor if held."""
        participant = self._participants.pop(person_id, None)
        if participant is None:
            raise ModelError(f"{person_id!r} is not in session {self.session_id}")
        self._world.network.node(participant.node).unbind(self._port(person_id))
        if self._floor_holder == person_id:
            self._floor_holder = None
            self._grant_next_floor()
        if person_id in self._floor_queue:
            self._floor_queue.remove(person_id)

    def participants(self) -> list[str]:
        """Everyone currently joined, sorted."""
        return sorted(self._participants)

    def _port(self, person_id: str) -> str:
        return f"rts-{self.session_id}-{person_id}"

    # -- floor control ----------------------------------------------------------
    @property
    def floor_holder(self) -> str | None:
        """Who currently holds the floor (None when uncontrolled/free)."""
        return self._floor_holder

    def request_floor(self, person_id: str) -> bool:
        """Request the floor; True when granted immediately."""
        if not self.floor_controlled:
            raise ModelError("session is not floor controlled")
        if person_id not in self._participants:
            raise ModelError(f"{person_id!r} is not in the session")
        if self._floor_holder is None:
            self._floor_holder = person_id
            return True
        if person_id == self._floor_holder or person_id in self._floor_queue:
            return False
        self._floor_queue.append(person_id)
        return False

    def release_floor(self, person_id: str) -> None:
        """Release the floor; the head of the queue (if any) gets it."""
        if self._floor_holder != person_id:
            raise ModelError(f"{person_id!r} does not hold the floor")
        self._floor_holder = None
        self._grant_next_floor()

    def _grant_next_floor(self) -> None:
        if self._floor_queue:
            self._floor_holder = self._floor_queue.popleft()

    # -- speaking ---------------------------------------------------------------
    def say(self, person_id: str, body: dict[str, Any], media: str = "text") -> int:
        """Fan a message out to every other participant.

        Returns the number of recipients.  Under floor control only the
        floor holder may speak.
        """
        sender = self._participants.get(person_id)
        if sender is None:
            raise ModelError(f"{person_id!r} is not in session {self.session_id}")
        if self.floor_controlled and self._floor_holder != person_id:
            raise ModelError(f"{person_id!r} does not hold the floor")
        payload = {"sender": person_id, "body": body}
        size = document_size(payload)
        count = 0
        for other in self._participants.values():
            if other.person_id == person_id:
                continue
            self._world.network.send(
                sender.node, other.node, self._port(other.person_id), payload, size_bytes=size
            )
            count += 1
            if self._log is not None:
                self._log.record(Exchange(person_id, other.person_id, "synchronous", media,
                                          size, self._world.now, self._context))
        self.utterances += 1
        return count
