"""Per-recipient message stores.

An X.413-style message store sits with the recipient's home MTA and holds
delivered messages until a user agent fetches them — this is what makes
the system *asynchronous*: the recipient need not be online at delivery
time (the paper's "different time" quadrant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.messaging.envelope import Envelope
from repro.util.errors import MessagingError


@dataclass
class StoredMessage:
    """One delivered message awaiting (or after) retrieval."""

    sequence: int
    envelope: Envelope
    delivered_at: float
    read: bool = False


class MessageStore:
    """Holds delivered messages for the mailboxes of one MTA's domain."""

    def __init__(self) -> None:
        self._boxes: dict[str, list[StoredMessage]] = {}
        self._sequence = 0
        self.delivered_total = 0

    def deliver(self, mailbox: str, envelope: Envelope, time: float) -> StoredMessage:
        """File a message into *mailbox*."""
        self._sequence += 1
        stored = StoredMessage(sequence=self._sequence, envelope=envelope, delivered_at=time)
        self._boxes.setdefault(mailbox, []).append(stored)
        self.delivered_total += 1
        return stored

    def list_messages(self, mailbox: str, unread_only: bool = False) -> list[StoredMessage]:
        """Messages in a mailbox, oldest first."""
        messages = self._boxes.get(mailbox, [])
        if unread_only:
            return [m for m in messages if not m.read]
        return list(messages)

    def fetch(self, mailbox: str, sequence: int) -> StoredMessage:
        """Fetch one message by sequence number and mark it read."""
        for message in self._boxes.get(mailbox, []):
            if message.sequence == sequence:
                message.read = True
                return message
        raise MessagingError(f"mailbox {mailbox!r} has no message #{sequence}")

    def delete(self, mailbox: str, sequence: int) -> None:
        """Remove one message."""
        messages = self._boxes.get(mailbox, [])
        remaining = [m for m in messages if m.sequence != sequence]
        if len(remaining) == len(messages):
            raise MessagingError(f"mailbox {mailbox!r} has no message #{sequence}")
        self._boxes[mailbox] = remaining

    def unread_count(self, mailbox: str) -> int:
        """Number of unread messages in a mailbox."""
        return sum(1 for m in self._boxes.get(mailbox, []) if not m.read)

    # -- wire helpers -------------------------------------------------------
    def summary_documents(self, mailbox: str, unread_only: bool = False) -> list[dict[str, Any]]:
        """Lightweight listing for the UA protocol."""
        return [
            {
                "sequence": m.sequence,
                "message_id": m.envelope.message_id,
                "subject": m.envelope.content.subject,
                "originator": str(m.envelope.originator),
                "delivered_at": m.delivered_at,
                "read": m.read,
            }
            for m in self.list_messages(mailbox, unread_only=unread_only)
        ]
