"""The communication model: communicators, exchanges, contexts.

Paper section 5: *"The communication model aims to represents
communication in terms of the communicators, the information objects they
exchange, and the context within which communication takes place."*

A :class:`Communicator` is a person's communication endpoint (their node,
the media they can receive, and their presence).  Every concrete exchange
— synchronous or asynchronous — is folded into the
:class:`CommunicationLog`'s aggregates, which answer the who-talks-to-whom
analyses message-based systems build on; sessions and channels describe
theirs as an :class:`Exchange`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.messaging.body_parts import MEDIA_TEXT
from repro.messaging.names import OrName
from repro.util.errors import ConfigurationError, UnknownObjectError


@dataclass
class Communicator:
    """One person's communication endpoint."""

    person_id: str
    node: str
    or_name: OrName | None = None
    #: media this communicator can receive directly
    accepts_media: set[str] = field(default_factory=lambda: {MEDIA_TEXT})
    #: presence: True while the user is at their workstation
    present: bool = True

    def __post_init__(self) -> None:
        if not self.person_id or not self.node:
            raise ConfigurationError("communicator needs a person id and a node")
        if not self.accepts_media:
            raise ConfigurationError("communicator must accept at least one medium")


@dataclass(frozen=True)
class CommunicationContext:
    """The setting of an exchange: activity, purpose, organisation pair."""

    activity: str = ""
    purpose: str = ""
    from_org: str = ""
    to_org: str = ""


class Exchange(NamedTuple):
    """One communication act, as a session or channel logs it.

    One is built per utterance or message part, so it is a
    :class:`~typing.NamedTuple`, the cheapest immutable record to build.  It is built positionally or
    by keyword and, being a tuple, compares equal to a plain tuple of the
    same field values.
    """

    sender: str
    receiver: str
    mode: str  # "synchronous" | "asynchronous"
    media: str
    size_bytes: int
    time: float
    context: CommunicationContext = CommunicationContext()
    info_objects: tuple[str, ...] = ()


class CommunicatorRegistry:
    """All communicators known to one environment."""

    def __init__(self) -> None:
        self._communicators: dict[str, Communicator] = {}

    def register(self, communicator: Communicator) -> Communicator:
        """Register an endpoint (one per person)."""
        if communicator.person_id in self._communicators:
            raise ConfigurationError(
                f"communicator for {communicator.person_id!r} already registered"
            )
        self._communicators[communicator.person_id] = communicator
        return communicator

    def get(self, person_id: str) -> Communicator:
        """Look up a communicator."""
        try:
            return self._communicators[person_id]
        except KeyError:
            raise UnknownObjectError(f"no communicator for {person_id!r}") from None

    def __contains__(self, person_id: object) -> bool:
        """Whether *person_id* has a registered communicator."""
        return person_id in self._communicators

    def all(self) -> list[Communicator]:
        """All registered communicators."""
        return list(self._communicators.values())

    def remove(self, person_id: str) -> Communicator:
        """Remove and return a person's endpoint (e.g. on domain move)."""
        try:
            return self._communicators.pop(person_id)
        except KeyError:
            raise UnknownObjectError(f"no communicator for {person_id!r}") from None

    def set_presence(self, person_id: str, present: bool) -> None:
        """Flip a person's presence (arrive at / leave the workstation)."""
        self.get(person_id).present = present

    def present_ids(self) -> list[str]:
        """Everyone currently present, sorted."""
        return sorted(c.person_id for c in self._communicators.values() if c.present)


class CommunicationLog:
    """Folds exchanges into two aggregates, kept in first-occurrence order:
    sender -> receiver -> exchanges, and one ``[exchanges, bytes]`` cell
    per setting, (mode, from_org, to_org, activity).  No exchange is kept,
    so the log grows with the population and its structure, not with the
    run length.

    A caller that folds many exchanges of one context holds that
    context's cells (:meth:`cells`) and hands :meth:`record` the cell of
    each exchange's mode, so a fold bumps the cell in place."""

    def __init__(self) -> None:
        self._pairs: defaultdict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: setting -> its [exchanges, bytes, setting] cell, every cell handed out
        self._cells: dict[tuple[str, ...], list] = {}
        #: the cells with an exchange folded in, in first-fold order
        self._settings: dict[tuple[str, ...], list] = {}

    def cells(self, context: CommunicationContext) -> dict[str, list]:
        """Mode -> the cell :meth:`record` folds *context*'s exchanges of
        that mode into, for both modes."""
        return {mode: self._cell(mode, context) for mode in ("synchronous", "asynchronous")}

    def _cell(self, mode: str, context: CommunicationContext) -> list:
        setting = (mode, context.from_org, context.to_org, context.activity)
        cell = self._cells.get(setting)
        if cell is None:
            cell = self._cells[setting] = [0, 0, setting]
        return cell

    def record(
        self,
        sender: "str | Exchange",
        receiver: str = "",
        size_bytes: int = 0,
        cell: list | None = None,
    ) -> None:
        """Fold one exchange into the aggregates: an :class:`Exchange`, or
        its sender, receiver, size and its mode's cell from :meth:`cells`."""
        if cell is None:
            sender, receiver, mode, _, size_bytes, _, context, _ = sender
            cell = self._cell(mode, context)
        self._pairs[sender][receiver] += 1
        if not cell[0]:  # the setting's first exchange: it joins the fold order
            self._settings[cell[2]] = cell
        cell[0] += 1
        cell[1] += size_bytes

    def _fold(self, field: "int | slice") -> dict:
        """Exchanges per value of ``setting[field]``, first occurrence first."""
        folded: dict = {}
        for setting, cell in self._settings.items():
            folded[setting[field]] = folded.get(setting[field], 0) + cell[0]
        return folded

    def __len__(self) -> int:
        """Exchanges recorded."""
        return sum(cell[0] for cell in self._settings.values())

    def between(self, a: str, b: str) -> int:
        """Exchanges in either direction between two people."""
        forward = self._pairs.get(a, {}).get(b, 0)
        return forward if a == b else forward + self._pairs.get(b, {}).get(a, 0)

    def by_mode(self, mode: str) -> int:
        """Exchanges of one mode."""
        return self._fold(0).get(mode, 0)

    def in_activity(self, activity: str) -> int:
        """Exchanges that happened within one activity context."""
        return self._fold(3).get(activity, 0)

    def traffic_matrix(self) -> dict[tuple[str, str], int]:
        """(sender, receiver) -> count of exchanges, grouped by sender."""
        return {(s, r): n for s, row in self._pairs.items() for r, n in row.items()}

    def organisation_pairs(self) -> dict[tuple[str, str], int]:
        """(from_org, to_org) -> count of exchanges, unknown orgs ('') too."""
        return self._fold(slice(1, 3))

    def activities(self) -> dict[str, int]:
        """activity id -> count of exchanges ('' for unscoped)."""
        return self._fold(3)

    def volume_bytes(self) -> int:
        """Total bytes exchanged."""
        return sum(cell[1] for cell in self._settings.values())
