"""Electronic meeting room (COLAB workalike).

Paper reference [10] (Stefik et al., *Beyond the chalkboard*): a purpose
built co-located meeting room where participants brainstorm onto a shared
board, organise items, and vote.  Floor control disciplines the "chalk";
brainstorm mode suspends it (free-for-all), mirroring COLAB's Cognoter
phases.

Quadrant: same time / same place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.base import GroupwareApp
from repro.communication.realtime import RealTimeSession
from repro.environment.registry import Q_SAME_TIME_SAME_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.sim.world import World
from repro.util.errors import ModelError
from repro.util.ids import IdFactory


@dataclass
class BoardItem:
    """One item on the shared board."""

    item_id: str
    author: str
    text: str
    category: str = ""
    votes: set[str] = field(default_factory=set)


@dataclass
class AgendaPoint:
    """One agenda point with its phase."""

    title: str
    phase: str = "pending"  # pending | brainstorm | organise | evaluate | done


class MeetingRoom(GroupwareApp):
    """A COLAB-style co-located meeting support application."""

    app_name = "meeting-room"
    quadrants = [Q_SAME_TIME_SAME_PLACE]

    def __init__(self, world: World, room_id: str = "colab", instance_name: str = "") -> None:
        super().__init__(instance_name)
        self._world = world
        self._session = RealTimeSession(world, room_id, floor_controlled=True)
        self._board: dict[str, BoardItem] = {}
        self._agenda: list[AgendaPoint] = []
        self._ids = IdFactory()
        self._brainstorming = False

    def converter(self) -> FormatConverter:
        """Native format ``meeting``: item text + category + author."""
        return FormatConverter(
            "meeting",
            to_common=lambda d: make_common(
                "note",
                d.get("category", "board item"),
                d.get("text", ""),
                author=d.get("author", ""),
            ),
            from_common=lambda c: {
                "text": c["body"] or c["title"],
                "category": c["attributes"].get("category", "imported"),
                "author": c["attributes"].get("author", ""),
            },
        )

    # -- attendance ----------------------------------------------------------
    def enter_room(self, person_id: str, workstation: str) -> None:
        """Sit down at a meeting-room workstation."""
        self._session.join(person_id, workstation, lambda sender, body: None)

    def attendees(self) -> list[str]:
        """Everyone in the room."""
        return self._session.participants()

    # -- agenda ---------------------------------------------------------------
    def add_agenda_point(self, title: str) -> AgendaPoint:
        """Append an agenda point."""
        point = AgendaPoint(title)
        self._agenda.append(point)
        return point

    def begin_brainstorm(self, point_title: str) -> None:
        """Enter free-for-all mode for an agenda point (no floor needed)."""
        point = self._find_point(point_title)
        point.phase = "brainstorm"
        self._brainstorming = True

    def end_brainstorm(self, point_title: str) -> None:
        """Back to floor-controlled organise phase."""
        point = self._find_point(point_title)
        point.phase = "organise"
        self._brainstorming = False

    def _find_point(self, title: str) -> AgendaPoint:
        for point in self._agenda:
            if point.title == title:
                return point
        raise ModelError(f"no agenda point {title!r}")

    # -- the board ----------------------------------------------------------------
    def take_floor(self, person_id: str) -> bool:
        """Request the chalk."""
        return self._session.request_floor(person_id)

    def add_item(self, person_id: str, text: str) -> BoardItem:
        """Write on the board.

        During brainstorm anyone writes; otherwise the floor holder only.
        """
        if person_id not in self._session.participants():
            raise ModelError(f"{person_id!r} is not in the room")
        if not self._brainstorming and self._session.floor_holder != person_id:
            raise ModelError(f"{person_id!r} does not hold the floor")
        item = BoardItem(self._ids.next("item"), person_id, text)
        self._board[item.item_id] = item
        return item

    def categorise(self, item_id: str, category: str) -> None:
        """Organise phase: group an item under a category."""
        self._item(item_id).category = category

    def vote(self, person_id: str, item_id: str) -> None:
        """Evaluate phase: one vote per attendee per item."""
        if person_id not in self._session.participants():
            raise ModelError(f"{person_id!r} is not in the room")
        self._item(item_id).votes.add(person_id)

    def _item(self, item_id: str) -> BoardItem:
        try:
            return self._board[item_id]
        except KeyError:
            raise ModelError(f"no board item {item_id!r}") from None

    def board(self, category: str | None = None) -> list[BoardItem]:
        """Board items, optionally one category, by id."""
        items = sorted(self._board.values(), key=lambda i: i.item_id)
        if category is None:
            return items
        return [i for i in items if i.category == category]

    def ranking(self) -> list[tuple[str, int]]:
        """Items by vote count, best first."""
        return sorted(
            ((item.text, len(item.votes)) for item in self._board.values()),
            key=lambda pair: (-pair[1], pair[0]),
        )

    def export_minutes(self, title: str = "meeting minutes") -> dict[str, Any]:
        """Render the meeting as a native ``meeting`` document.

        The minutes carry the agenda with phases, the board grouped by
        category, and the vote ranking.  Being a native document, it can
        be exchanged through the environment into any other application
        (e.g. the document processor receives it as titled paragraphs).
        """
        paragraphs = [f"Attendees: {', '.join(self.attendees()) or 'none'}"]
        for point in self._agenda:
            paragraphs.append(f"Agenda: {point.title} [{point.phase}]")
        categories: dict[str, list[BoardItem]] = {}
        for item in self.board():
            categories.setdefault(item.category or "uncategorised", []).append(item)
        for category in sorted(categories):
            lines = "; ".join(
                f"{item.text} ({item.author})" for item in categories[category]
            )
            paragraphs.append(f"{category}: {lines}")
        ranking = self.ranking()
        if any(votes for _, votes in ranking):
            decisions = ", ".join(f"{text} [{votes}]" for text, votes in ranking if votes)
            paragraphs.append(f"Decisions by vote: {decisions}")
        return {
            "text": "\n\n".join(paragraphs),
            "category": title,
            "author": self._session.floor_holder or "scribe",
        }

    # -- environment integration -------------------------------------------------
    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Documents delivered via the environment land on the board."""
        item = BoardItem(
            self._ids.next("item"),
            author=document.get("author") or info.get("sender", "external"),
            text=document.get("text", ""),
            category=document.get("category", "imported"),
        )
        self._board[item.item_id] = item
