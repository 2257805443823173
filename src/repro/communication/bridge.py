"""Time transparency: one send primitive across sync and async modes.

Paper section 4: *"Transparency of time deals with the mode of work,
synchronous or asynchronous.  The result of applying this transparency is
that interaction will be independent of the mode we are using."*

The :class:`TimeTransparencyBridge` gives callers a single
:meth:`converse` primitive: when the receiver is present in a live
real-time session the message goes synchronously; otherwise it falls back
to the asynchronous channel.  Callers never branch on mode — that is the
transparency.  Experiment E4 ablates this bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.communication.asynchronous import AsyncChannel
from repro.communication.model import CommunicationContext, CommunicatorRegistry
from repro.communication.realtime import RealTimeSession
from repro.messaging.body_parts import text_body
from repro.util.errors import ModelError


@dataclass(frozen=True)
class ConverseResult:
    """How a converse() call was delivered."""

    mode: str  # "synchronous" | "asynchronous"
    detail: str = ""


class TimeTransparencyBridge:
    """Routes messages to the live session or the message system."""

    def __init__(
        self,
        communicators: CommunicatorRegistry,
        session: RealTimeSession | None = None,
    ) -> None:
        self._communicators = communicators
        self._session = session
        self._async_channels: dict[str, AsyncChannel] = {}
        self.synchronous_sends = 0
        self.asynchronous_sends = 0

    def attach_async_channel(self, person_id: str, channel: AsyncChannel) -> None:
        """Register a person's asynchronous channel (their UA wrapper)."""
        self._async_channels[person_id] = channel

    def _receiver_reachable_synchronously(self, receiver: str) -> bool:
        if self._session is None:
            return False
        if receiver not in self._session.participants():
            return False
        return self._communicators.get(receiver).present

    def converse(
        self,
        sender: str,
        receiver: str,
        text: str,
        subject: str = "",
        context: CommunicationContext = CommunicationContext(),
    ) -> ConverseResult:
        """Deliver *text* from *sender* to *receiver*, mode-independently."""
        if self._receiver_reachable_synchronously(receiver):
            assert self._session is not None
            if sender not in self._session.participants():
                # The sender joins implicitly through their async channel
                # when not in the session; fall through to async.
                pass
            else:
                self._session.say(sender, {"text": text, "subject": subject})
                self.synchronous_sends += 1
                return ConverseResult("synchronous", self._session.session_id)
        channel = self._async_channels.get(sender)
        if channel is None:
            raise ModelError(
                f"sender {sender!r} can reach {receiver!r} neither synchronously "
                "nor asynchronously (no channel registered)"
            )
        message_id = channel.send_to_person(
            sender, receiver, subject or "(conversation)", [text_body(text)], context=context
        )
        self.asynchronous_sends += 1
        return ConverseResult("asynchronous", message_id)
