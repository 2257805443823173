"""Asynchronous communication over the message handling system.

The "different time" half of the matrix: an :class:`AsyncChannel` wraps a
user agent so communication-model clients send and receive with the same
vocabulary (person ids, body parts, contexts) they use for real-time
sessions, while delivery rides the X.400-style substrate with all its
store-and-forward guarantees.
"""

from __future__ import annotations

from typing import Any

from repro.communication.model import (
    CommunicationContext,
    CommunicationLog,
    CommunicatorRegistry,
    Exchange,
)
from repro.messaging.body_parts import BodyPart, convert, text_body
from repro.messaging.ua import UserAgent
from repro.util.errors import ModelError, UnknownObjectError


class AsyncChannel:
    """Person-addressed asynchronous messaging for one sender."""

    def __init__(
        self,
        ua: UserAgent,
        communicators: CommunicatorRegistry,
        log: CommunicationLog | None = None,
    ) -> None:
        self._ua = ua
        self._communicators = communicators
        self._log = log
        self.sent = 0

    @property
    def person_id(self) -> str:
        """The sender this channel belongs to (mailbox key)."""
        return self._ua.user.mailbox

    def send_to_person(
        self,
        sender_person: str,
        receiver_person: str,
        subject: str,
        body: "list[BodyPart] | str",
        context: CommunicationContext = CommunicationContext(),
        adapt_media: bool = True,
        extensions: dict[str, Any] | None = None,
    ) -> str:
        """Send a message addressed by person id.

        The receiver's O/R name is resolved through the communicator
        registry; body parts are adapted to media the receiver accepts
        when *adapt_media* (e.g. text rendered to fax for a fax-only
        recipient).  Returns the message id.
        """
        receiver = self._communicators.get(receiver_person)
        if receiver.or_name is None:
            raise UnknownObjectError(
                f"communicator {receiver_person!r} has no O/R name; cannot message them"
            )
        parts = [text_body(body)] if isinstance(body, str) else list(body)
        if adapt_media:
            parts = [self._adapt(part, receiver.accepts_media) for part in parts]
        message_id = self._ua.send(
            [receiver.or_name], subject, parts, extensions=dict(extensions or {})
        )
        self.sent += 1
        if self._log is not None:
            for part in parts:
                self._log.record(Exchange(sender_person, receiver_person, "asynchronous",
                                          part.media, part.size_bytes(), 0.0, context))
        return message_id

    @staticmethod
    def _adapt(part: BodyPart, accepted: set[str]) -> BodyPart:
        if part.media in accepted:
            return part
        for target in sorted(accepted):
            try:
                return convert(part, target)
            except Exception:
                continue
        raise ModelError(
            f"cannot adapt a {part.media!r} body part to any of {sorted(accepted)}"
        )

    # -- receiving ------------------------------------------------------------
    def inbox_summaries(self, unread_only: bool = False) -> list[dict[str, Any]]:
        """The receiver-side view: summaries from the message store."""
        return self._ua.list_inbox(unread_only=unread_only)

    def fetch_bodies(self, sequence: int) -> list[BodyPart]:
        """Fetch one message's body parts."""
        envelope = self._ua.fetch(sequence)
        return list(envelope.content.body_parts)
