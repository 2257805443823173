"""WYSIWIS shared editor (Shared X workalike).

Paper references [5, 6]: synchronous desktop conferencing through shared
windows — every participant sees the identical document ("What You See Is
What I See").  Edits fan out over the simulated network through a
:class:`~repro.communication.realtime.RealTimeSession`; causal ordering is
kept with Lamport clocks and a deterministic total order (time, author) so
concurrent edits converge at every replica.

Quadrant: same time / different place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.apps.base import InboxApp
from repro.communication.realtime import RealTimeSession
from repro.environment.registry import Q_SAME_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.sim.world import World
from repro.util.clock import LamportClock
from repro.util.errors import ModelError


@dataclass(frozen=True)
class EditOp:
    """One edit: insert or delete a line at a position."""

    op: str  # "insert" | "delete"
    position: int
    text: str
    author: str
    stamp: tuple[int, str]

    def to_document(self) -> dict[str, Any]:
        """Serialize for fan-out."""
        return {
            "op": self.op,
            "position": self.position,
            "text": self.text,
            "author": self.author,
            "stamp": list(self.stamp),
        }

    @staticmethod
    def from_document(document: dict[str, Any]) -> "EditOp":
        """Deserialize a fanned-out edit."""
        stamp = document["stamp"]
        return EditOp(
            op=document["op"],
            position=document["position"],
            text=document.get("text", ""),
            author=document.get("author", ""),
            stamp=(stamp[0], stamp[1]),
        )


class _Replica:
    """One participant's copy of the shared document."""

    def __init__(self, person_id: str) -> None:
        self.person_id = person_id
        self.clock = LamportClock(person_id)
        self._ops: list[EditOp] = []

    def local_edit(self, op: str, position: int, text: str) -> EditOp:
        edit = EditOp(op, position, text, self.person_id, self.clock.stamp())
        self._ops.append(edit)
        return edit

    def remote_edit(self, edit: EditOp) -> None:
        self.clock.observe(edit.stamp[0])
        self._ops.append(edit)

    def operations(self) -> list[EditOp]:
        """The full operation history (for state transfer)."""
        return list(self._ops)

    def last_op_by(self, author: str) -> EditOp | None:
        """The author's latest operation in total order, if any."""
        authored = [op for op in self._ops if op.author == author]
        if not authored:
            return None
        return max(authored, key=lambda op: op.stamp)

    def lines(self) -> list[str]:
        """Materialise the document: replay ops in total stamp order."""
        return [text for text, _ in self._replay()[0]]

    def _replay(self) -> tuple[list[tuple[str, tuple[int, str]]], dict[tuple[int, str], str]]:
        """Replay ops; returns (lines tagged with their insert stamp,
        map of delete-op stamp -> the text that delete removed)."""
        lines: list[tuple[str, tuple[int, str]]] = []
        removed: dict[tuple[int, str], str] = {}
        for edit in sorted(self._ops, key=lambda e: e.stamp):
            position = max(0, min(edit.position, len(lines)))
            if edit.op == "insert":
                lines.insert(position, (edit.text, edit.stamp))
            elif edit.op == "delete" and position < len(lines):
                removed[edit.stamp] = lines[position][0]
                del lines[position]
        return lines, removed

    def current_index_of(self, insert_stamp: tuple[int, str]) -> int | None:
        """Where the line inserted by *insert_stamp* currently sits."""
        for index, (_, stamp) in enumerate(self._replay()[0]):
            if stamp == insert_stamp:
                return index
        return None

    def text_removed_by(self, delete_stamp: tuple[int, str]) -> str | None:
        """The text a past delete op removed, if it removed anything."""
        return self._replay()[1].get(delete_stamp)


class SharedEditor(InboxApp):
    """A WYSIWIS multi-replica editor over a real-time session."""

    app_name = "shared-editor"
    quadrants = [Q_SAME_TIME_DIFFERENT_PLACE]

    def __init__(self, world: World, session_id: str = "shared-doc", instance_name: str = "") -> None:
        super().__init__(instance_name)
        self._world = world
        self._session = RealTimeSession(world, session_id)
        self._replicas: dict[str, _Replica] = {}

    def converter(self) -> FormatConverter:
        """Native format ``editor``: title + lines.

        WYSIWIS means view transparency is deliberately *not* applied to
        the live document (everyone sees the same rendering); the
        converter exists so document *snapshots* can travel to other
        applications through the environment.
        """
        return FormatConverter(
            "editor",
            to_common=lambda d: make_common(
                "document", d.get("title", ""), "\n".join(d.get("lines", []))
            ),
            from_common=lambda c: {
                "title": c["title"],
                "lines": c["body"].split("\n") if c["body"] else [],
            },
        )

    # -- participation -----------------------------------------------------------
    def open_document(self, person_id: str, node: str, state_transfer: bool = True) -> None:
        """Join the editing session from a workstation.

        With *state_transfer* (the default) the newcomer receives the full
        operation history from an existing replica before going live, so
        late joiners see the same document as everyone else — without it
        they only see edits made after they joined.
        """
        replica = _Replica(person_id)
        if state_transfer and self._replicas:
            donor = next(iter(self._replicas.values()))
            for edit in donor.operations():
                replica.remote_edit(edit)
        self._replicas[person_id] = replica
        self._session.join(
            person_id,
            node,
            lambda sender, body: replica.remote_edit(EditOp.from_document(body)),
        )

    # -- editing --------------------------------------------------------------------
    def insert(self, person_id: str, position: int, text: str) -> EditOp:
        """Insert a line and fan the edit out to all participants."""
        return self._edit(person_id, "insert", position, text)

    def delete(self, person_id: str, position: int) -> EditOp:
        """Delete a line and fan the edit out."""
        return self._edit(person_id, "delete", position, "")

    def _edit(self, person_id: str, op: str, position: int, text: str) -> EditOp:
        replica = self._replicas.get(person_id)
        if replica is None:
            raise ModelError(f"{person_id!r} has not opened the document")
        edit = replica.local_edit(op, position, text)
        self._session.say(person_id, edit.to_document())
        return edit

    def undo(self, person_id: str) -> EditOp:
        """Undo the person's latest edit with a compensating operation.

        Undoing an insert deletes the line *where it currently is* (later
        edits may have moved it); undoing a delete re-inserts the removed
        text.  Raises :class:`ModelError` when there is nothing to undo
        (no own ops, or the inserted line was already deleted by someone).
        """
        replica = self._replicas.get(person_id)
        if replica is None:
            raise ModelError(f"{person_id!r} has not opened the document")
        last = replica.last_op_by(person_id)
        if last is None:
            raise ModelError(f"{person_id!r} has nothing to undo")
        if last.op == "insert":
            index = replica.current_index_of(last.stamp)
            if index is None:
                raise ModelError("the inserted line was already deleted")
            return self._edit(person_id, "delete", index, "")
        removed = replica.text_removed_by(last.stamp)
        if removed is None:
            raise ModelError("the delete removed nothing; cannot undo")
        return self._edit(person_id, "insert", last.position, removed)

    def view(self, person_id: str) -> list[str]:
        """The document as *person_id* currently sees it."""
        replica = self._replicas.get(person_id)
        if replica is None:
            raise ModelError(f"{person_id!r} has not opened the document")
        return replica.lines()

    def converged(self) -> bool:
        """WYSIWIS invariant: all replicas show identical lines."""
        views = [r.lines() for r in self._replicas.values()]
        return all(v == views[0] for v in views) if views else True

    def snapshot(self, person_id: str, title: str) -> dict[str, Any]:
        """A native document snapshot (for exchange with other apps)."""
        return {"title": title, "lines": self.view(person_id)}
