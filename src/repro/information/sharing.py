"""Information sharing: workspaces, checkout/checkin, conflict handling.

Paper section 4, "Support for Information Sharing": "the sharing of
information is an essential precursor to cooperative working" and the
environment must adopt "patterns of sharing ... which enable effective
cooperation".  A :class:`SharedWorkspace` scopes a set of information
objects to a group (activity or project) with a sharing pattern; the
checkout/checkin protocol provides optimistic concurrency with explicit
conflict surfacing (never silent lost updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.information.access import AccessController, OP_READ, OP_WRITE
from repro.information.objects import InformationBase, InformationObject
from repro.util.errors import ModelError, UnknownObjectError


class SharingPattern(Enum):
    """Who may see a workspace's objects."""

    PRIVATE = "private"      # members only
    GROUP = "group"          # members + explicitly invited readers
    PUBLIC = "public"        # anyone in the environment


@dataclass(frozen=True)
class Checkout:
    """A working copy handed to one person."""

    object_id: str
    person_id: str
    base_version: int
    content: dict[str, Any]


class ConflictError(ModelError):
    """Checkin raced with another update; the caller must reconcile."""

    def __init__(self, object_id: str, base_version: int, current_version: int) -> None:
        super().__init__(
            f"{object_id}: checked out at v{base_version} but now at v{current_version}"
        )
        self.object_id = object_id
        self.base_version = base_version
        self.current_version = current_version


class SharedWorkspace:
    """A group-scoped view over the information base."""

    def __init__(
        self,
        workspace_id: str,
        base: InformationBase,
        access: AccessController | None = None,
        pattern: SharingPattern = SharingPattern.GROUP,
    ) -> None:
        self.workspace_id = workspace_id
        self.pattern = pattern
        self._base = base
        self._access = access
        self._members: set[str] = set()
        self._readers: set[str] = set()
        self._object_ids: set[str] = set()
        self._checkouts: dict[tuple[str, str], Checkout] = {}
        self.checkins = 0
        self.conflicts = 0

    # -- membership -----------------------------------------------------------
    def add_member(self, person_id: str) -> None:
        """Full member: may read and write."""
        self._members.add(person_id)

    def invite_reader(self, person_id: str) -> None:
        """Reader: may only read (GROUP pattern)."""
        self._readers.add(person_id)

    def can_read(self, person_id: str) -> bool:
        """Visibility under the sharing pattern."""
        if self.pattern is SharingPattern.PUBLIC:
            return True
        if self.pattern is SharingPattern.GROUP:
            return person_id in self._members or person_id in self._readers
        return person_id in self._members

    def can_write(self, person_id: str) -> bool:
        """Only full members write, regardless of pattern."""
        return person_id in self._members

    # -- contents ---------------------------------------------------------------
    def share(self, object_id: str) -> None:
        """Place an existing information object into this workspace."""
        self._base.get(object_id)
        self._object_ids.add(object_id)

    def _require_shared(self, object_id: str) -> InformationObject:
        if object_id not in self._object_ids:
            raise UnknownObjectError(
                f"object {object_id!r} is not shared in workspace {self.workspace_id!r}"
            )
        return self._base.get(object_id)

    # -- read/checkout/checkin ---------------------------------------------------
    def read(self, object_id: str, person_id: str, project: str | None = None) -> dict[str, Any]:
        """Read the current content, enforcing pattern + ACL."""
        obj = self._require_shared(object_id)
        if not self.can_read(person_id):
            raise ModelError(f"{person_id} cannot read workspace {self.workspace_id}")
        if self._access is not None:
            self._access.require(person_id, OP_READ, object_id, project=project)
        return obj.content

    def checkout(self, object_id: str, person_id: str, project: str | None = None) -> Checkout:
        """Take a working copy for editing."""
        obj = self._require_shared(object_id)
        if not self.can_write(person_id):
            raise ModelError(f"{person_id} cannot write in workspace {self.workspace_id}")
        if self._access is not None:
            self._access.require(person_id, OP_WRITE, object_id, project=project)
        checkout = Checkout(object_id, person_id, obj.version, obj.content)
        self._checkouts[(object_id, person_id)] = checkout
        return checkout

    def checkin(
        self,
        checkout: Checkout,
        content: dict[str, Any],
        time: float = 0.0,
        comment: str = "",
    ) -> int:
        """Commit a working copy; returns the new version number.

        Raises :class:`ConflictError` when someone else checked in since
        the checkout — the paper's environment surfaces conflicts rather
        than silently overwriting ("errors should never pass silently").
        """
        obj = self._require_shared(checkout.object_id)
        key = (checkout.object_id, checkout.person_id)
        if self._checkouts.get(key) is not checkout:
            raise ModelError("stale or unknown checkout")
        if obj.version != checkout.base_version:
            self.conflicts += 1
            raise ConflictError(checkout.object_id, checkout.base_version, obj.version)
        version = obj.update(content, checkout.person_id, time, comment)
        del self._checkouts[key]
        self.checkins += 1
        return version.number

    def merge_checkin(
        self,
        checkout: Checkout,
        content: dict[str, Any],
        time: float = 0.0,
    ) -> int:
        """Conflict-resolving checkin: key-wise merge over the current head.

        Keys changed by this checkout win; keys the checkout did not touch
        keep the head's value.  Used after a :class:`ConflictError` when
        the edits are disjoint enough.
        """
        obj = self._require_shared(checkout.object_id)
        head = obj.content
        merged = dict(head)
        for key, value in content.items():
            if checkout.content.get(key) != value:
                merged[key] = value
        version = obj.update(
            merged, checkout.person_id, time, comment="merged checkin"
        )
        self._checkouts.pop((checkout.object_id, checkout.person_id), None)
        self.checkins += 1
        return version.number
