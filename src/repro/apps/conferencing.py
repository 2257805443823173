"""Computer conferencing (COM/PortaCOM workalike).

Paper section 2: "The majority of asynchronous systems are based around
either message systems or computer conferencing systems [9]" — [9] is
Palme's COM.  Conferences are named, membership-controlled topic streams;
members post entries and read news (entries they have not seen), possibly
as replies forming threads.

Quadrant: different time / different place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.base import GroupwareApp
from repro.environment.registry import Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.util.errors import ConfigurationError, UnknownObjectError
from repro.util.ids import IdFactory


@dataclass
class ConferenceEntry:
    """One contribution to a conference."""

    entry_id: str
    conference: str
    author: str
    topic: str
    text: str
    time: float
    in_reply_to: str = ""


@dataclass
class Conference:
    """A named discussion stream with membership."""

    name: str
    organizer: str
    members: set[str] = field(default_factory=set)
    entries: list[ConferenceEntry] = field(default_factory=list)
    #: per-member high-water mark: index of first unseen entry
    read_marks: dict[str, int] = field(default_factory=dict)
    #: moderated conferences hold non-organizer posts for approval
    moderated: bool = False
    pending: list[ConferenceEntry] = field(default_factory=list)


class ConferencingSystem(GroupwareApp):
    """A COM-style conferencing application."""

    app_name = "conferencing"
    quadrants = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]

    def __init__(self, instance_name: str = "") -> None:
        super().__init__(instance_name)
        self._conferences: dict[str, Conference] = {}
        self._ids = IdFactory()

    def converter(self) -> FormatConverter:
        """Native format ``conference``: topic/entry/conference/author."""
        return FormatConverter(
            "conference",
            to_common=lambda d: make_common(
                "note",
                d.get("topic", ""),
                d.get("entry", ""),
                conference=d.get("conference", ""),
                author=d.get("author", ""),
            ),
            from_common=lambda c: {
                "topic": c["title"],
                "entry": c["body"],
                "conference": c["attributes"].get("conference", "imported"),
                "author": c["attributes"].get("author", ""),
            },
        )

    # -- conference management ------------------------------------------------
    def create_conference(self, name: str, organizer: str, moderated: bool = False) -> Conference:
        """Open a new conference; the organizer is its first member.

        A *moderated* conference holds posts from ordinary members in a
        pending queue until the organizer approves or rejects them.
        """
        if name in self._conferences:
            raise ConfigurationError(f"conference {name!r} already exists")
        conference = Conference(
            name=name, organizer=organizer, members={organizer}, moderated=moderated
        )
        self._conferences[name] = conference
        return conference

    def conference(self, name: str) -> Conference:
        """Look up a conference."""
        try:
            return self._conferences[name]
        except KeyError:
            raise UnknownObjectError(f"unknown conference {name!r}") from None

    def join(self, name: str, person_id: str) -> None:
        """Join a conference."""
        self.conference(name).members.add(person_id)

    def leave(self, name: str, person_id: str) -> None:
        """Leave a conference (the organizer may not leave)."""
        conference = self.conference(name)
        if person_id == conference.organizer:
            raise ConfigurationError("the organizer cannot leave their conference")
        conference.members.discard(person_id)

    # -- posting and reading -----------------------------------------------------
    def post(
        self, name: str, author: str, topic: str, text: str, time: float = 0.0,
        in_reply_to: str = "",
    ) -> ConferenceEntry:
        """Add an entry; only members may post."""
        conference = self.conference(name)
        if author not in conference.members:
            raise ConfigurationError(f"{author!r} is not a member of {name!r}")
        if in_reply_to and not any(e.entry_id == in_reply_to for e in conference.entries):
            raise UnknownObjectError(f"no entry {in_reply_to!r} in {name!r}")
        entry = ConferenceEntry(
            entry_id=self._ids.next(f"entry-{name}"),
            conference=name,
            author=author,
            topic=topic,
            text=text,
            time=time,
            in_reply_to=in_reply_to,
        )
        if conference.moderated and author != conference.organizer:
            conference.pending.append(entry)
        else:
            conference.entries.append(entry)
        return entry

    # -- moderation --------------------------------------------------------------
    def pending_entries(self, name: str, moderator: str) -> list[ConferenceEntry]:
        """Posts awaiting approval (organizer only)."""
        conference = self.conference(name)
        if moderator != conference.organizer:
            raise ConfigurationError(f"{moderator!r} does not moderate {name!r}")
        return list(conference.pending)

    def approve(self, name: str, entry_id: str, moderator: str) -> ConferenceEntry:
        """Publish a pending entry (organizer only)."""
        conference = self.conference(name)
        if moderator != conference.organizer:
            raise ConfigurationError(f"{moderator!r} does not moderate {name!r}")
        for entry in conference.pending:
            if entry.entry_id == entry_id:
                conference.pending.remove(entry)
                conference.entries.append(entry)
                return entry
        raise UnknownObjectError(f"no pending entry {entry_id!r} in {name!r}")

    def reject(self, name: str, entry_id: str, moderator: str) -> None:
        """Discard a pending entry (organizer only)."""
        conference = self.conference(name)
        if moderator != conference.organizer:
            raise ConfigurationError(f"{moderator!r} does not moderate {name!r}")
        before = len(conference.pending)
        conference.pending = [e for e in conference.pending if e.entry_id != entry_id]
        if len(conference.pending) == before:
            raise UnknownObjectError(f"no pending entry {entry_id!r} in {name!r}")

    def news_for(self, name: str, person_id: str) -> list[ConferenceEntry]:
        """Unseen entries for a member; advances their read mark."""
        conference = self.conference(name)
        if person_id not in conference.members:
            raise ConfigurationError(f"{person_id!r} is not a member of {name!r}")
        mark = conference.read_marks.get(person_id, 0)
        fresh = conference.entries[mark:]
        conference.read_marks[person_id] = len(conference.entries)
        return fresh

    def thread(self, name: str, root_id: str) -> list[ConferenceEntry]:
        """An entry and all (transitive) replies, in posting order."""
        conference = self.conference(name)
        wanted = {root_id}
        thread = []
        for entry in conference.entries:
            if entry.entry_id in wanted or entry.in_reply_to in wanted:
                wanted.add(entry.entry_id)
                thread.append(entry)
        if not thread:
            raise UnknownObjectError(f"no entry {root_id!r} in {name!r}")
        return thread

    # -- environment integration ----------------------------------------------------
    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Documents arriving via the environment post into a conference.

        Cross-application cooperation: a memo or form translated into the
        ``conference`` format lands as an entry in the person's inbox
        conference (created on demand), stamped with its delivery time.
        """
        name = document.get("conference") or "imported"
        if name not in self._conferences:
            self.create_conference(name, organizer=person_id)
        conference = self.conference(name)
        conference.members.add(person_id)
        author = document.get("author") or info.get("sender", "external")
        conference.members.add(author)
        self.post(
            name,
            author=author,
            topic=document.get("topic", ""),
            text=document.get("entry", ""),
            time=info.get("delivered_at", info.get("sent_at", 0.0)),
        )
