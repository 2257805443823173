"""The Directory Information Tree: entries, modification and search.

The DIT holds entries keyed by distinguished name, validates them against
a :class:`~repro.directory.schema.Schema`, enforces tree structure (an
entry's parent must exist; only leaves may be deleted), and implements the
three X.500 search scopes (base / one-level / subtree).

Every mutation bumps a change sequence number and appends to a changelog,
which the shadowing protocol (:mod:`repro.directory.replication`) consumes
for incremental replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from repro.directory.filters import Filter
from repro.directory.names import DistinguishedName, dn
from repro.directory.schema import Schema, standard_schema
from repro.util.errors import (
    AccessDeniedError,
    DirectoryError,
    EntryExistsError,
    NoSuchEntryError,
)

#: search scopes
SCOPE_BASE = "base"
SCOPE_ONE = "one"
SCOPE_SUBTREE = "subtree"
_SCOPES = (SCOPE_BASE, SCOPE_ONE, SCOPE_SUBTREE)


def _normalize_attributes(attributes: dict[str, Any]) -> dict[str, list[Any]]:
    """Lower-case attribute names; wrap scalars in lists; copy lists."""
    normalized: dict[str, list[Any]] = {}
    for name, value in attributes.items():
        if isinstance(value, (list, tuple)):
            normalized[name.lower()] = list(value)
        else:
            normalized[name.lower()] = [value]
    return normalized


@dataclass(frozen=True)
class Entry:
    """An immutable snapshot of one directory entry."""

    name: DistinguishedName
    attributes: dict[str, list[Any]] = field(default_factory=dict)

    def get(self, attribute: str) -> list[Any]:
        """Values of an attribute ([] when absent)."""
        return list(self.attributes.get(attribute.lower(), []))

    def first(self, attribute: str, default: Any = None) -> Any:
        """First value of an attribute, or *default*."""
        values = self.get(attribute)
        return values[0] if values else default

    def to_document(self) -> dict[str, Any]:
        """Serialize for transport."""
        return {"dn": str(self.name), "attributes": {k: list(v) for k, v in self.attributes.items()}}

    @staticmethod
    def from_document(document: dict[str, Any]) -> "Entry":
        """Deserialize from transport form."""
        return Entry(dn(document["dn"]), _normalize_attributes(document["attributes"]))


class ChangeRecord(NamedTuple):
    """One entry in the DIT changelog (consumed by shadowing)."""

    csn: int
    operation: str  # add | modify | delete
    name: str
    attributes: dict[str, list[Any]] | None = None


class DirectoryInformationTree:
    """An in-memory DIT with schema validation and scoped search."""

    def __init__(self, schema: Schema | None = None) -> None:
        self.schema = schema if schema is not None else standard_schema()
        self._entries: dict[str, Entry] = {}
        self._children: dict[str, set[str]] = {"": set()}
        self._csn = 0
        self._changelog: list[ChangeRecord] = []
        #: subtree access control: key -> (readers, writers); None = open
        self._protections: dict[str, tuple[set[str], set[str]]] = {}

    # -- bookkeeping ---------------------------------------------------------
    @property
    def csn(self) -> int:
        """Change sequence number of the latest mutation."""
        return self._csn

    def changes_since(self, csn: int) -> list[ChangeRecord]:
        """All change records with csn strictly greater than *csn*."""
        return [c for c in self._changelog if c.csn > csn]

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, operation: str, name: DistinguishedName, attributes: dict[str, list[Any]] | None) -> None:
        self._csn += 1
        self._changelog.append(
            ChangeRecord(self._csn, operation, str(name), attributes)
        )

    # -- access control --------------------------------------------------------
    def protect(
        self,
        base: DistinguishedName | str,
        readers: set[str],
        writers: set[str],
    ) -> None:
        """Protect the subtree at *base*: only listed requestors may act.

        ``"*"`` in a set means anyone.  The most specific protected
        ancestor of an entry governs it; unprotected subtrees are open
        (backwards compatible).  The anonymous requestor is ``""``.
        """
        target = dn(base)
        if not target.is_root and not self.exists(target):
            raise NoSuchEntryError(f"cannot protect missing entry {target}")
        self._protections[target.key] = (set(readers), set(writers))

    def _governing_protection(self, name: DistinguishedName) -> tuple[set[str], set[str]] | None:
        if not self._protections:
            return None
        current = name
        while True:
            protection = self._protections.get(current.key)
            if protection is not None:
                return protection
            if current.is_root:
                return None
            current = current.parent()

    def can_read(self, name: DistinguishedName | str, requestor: str = "") -> bool:
        """True when *requestor* may read the entry at *name*."""
        target = dn(name)
        protection = self._governing_protection(target)
        if protection is None:
            return True
        readers, _ = protection
        return "*" in readers or requestor in readers

    def can_write(self, name: DistinguishedName | str, requestor: str = "") -> bool:
        """True when *requestor* may modify the entry at *name*."""
        target = dn(name)
        protection = self._governing_protection(target)
        if protection is None:
            return True
        _, writers = protection
        return "*" in writers or requestor in writers

    def _require_read(self, name: DistinguishedName, requestor: str) -> None:
        if self._protections and not self.can_read(name, requestor):
            raise AccessDeniedError(f"{requestor or 'anonymous'} may not read {name}")

    def _require_write(self, name: DistinguishedName, requestor: str) -> None:
        if self._protections and not self.can_write(name, requestor):
            raise AccessDeniedError(f"{requestor or 'anonymous'} may not write {name}")

    # -- reads ---------------------------------------------------------------
    def exists(self, name: DistinguishedName | str) -> bool:
        """True when an entry with this DN exists."""
        target = name if isinstance(name, DistinguishedName) else dn(name)
        return target.key in self._entries

    def read(
        self,
        name: DistinguishedName | str,
        dereference: bool = True,
        requestor: str = "",
    ) -> Entry:
        """Fetch one entry by DN, following alias entries by default.

        An alias entry (object class ``alias``) points at another DN via
        ``aliasedObjectName``; chains are followed up to 8 hops, after
        which a :class:`DirectoryError` is raised (alias loop).  Subtree
        protections are enforced against *requestor* at every hop.
        """
        target = dn(name)
        for _ in range(8):
            self._require_read(target, requestor)
            entry = self._entries.get(target.key)
            if entry is None:
                raise NoSuchEntryError(f"no entry {target}")
            aliased = entry.first("aliasedobjectname")
            if not dereference or aliased is None:
                return entry
            target = dn(str(aliased))
        raise DirectoryError(f"alias chain too long resolving {name}")

    def children_of(self, name: DistinguishedName | str) -> list[Entry]:
        """Immediate children of an entry (or of the root)."""
        target = dn(name)
        if not target.is_root and not self.exists(target):
            raise NoSuchEntryError(f"no entry {target}")
        keys = self._children.get(target.key, set())
        return sorted((self._entries[k] for k in keys), key=lambda e: e.name)

    # -- writes ---------------------------------------------------------------
    def add(
        self,
        name: DistinguishedName | str,
        attributes: dict[str, Any],
        requestor: str = "",
    ) -> Entry:
        """Add an entry; the parent must already exist (except under root)."""
        target = name if isinstance(name, DistinguishedName) else dn(name)
        if not target.rdns:
            raise DirectoryError("cannot add an entry at the root DN")
        self._require_write(target, requestor)
        key = target.key
        if key in self._entries:
            raise EntryExistsError(f"entry {target} already exists")
        parent = target.parent()
        parent_key = parent.key
        if parent.rdns and parent_key not in self._entries:
            raise NoSuchEntryError(f"parent {parent} does not exist")
        normalized = _normalize_attributes(attributes)
        # The naming attribute must appear among the entry's attributes.
        leaf = target.rdns[0]
        naming_attr, naming_value = leaf.normalized
        named = normalized.get(naming_attr)
        if named is None:
            normalized[naming_attr] = [leaf.value]
        elif naming_value not in [str(v).lower() for v in named]:
            named.append(leaf.value)
        self.schema.validate_entry(normalized)
        entry = Entry(target, normalized)
        self._entries[key] = entry
        siblings = self._children.get(parent_key)
        if siblings is None:
            siblings = self._children[parent_key] = set()
        siblings.add(key)
        self._record("add", target, normalized)
        return entry

    def modify(
        self,
        name: DistinguishedName | str,
        add: dict[str, Any] | None = None,
        replace: dict[str, Any] | None = None,
        delete: Iterable[str] | None = None,
        requestor: str = "",
    ) -> Entry:
        """Apply attribute changes to an entry, re-validating the result."""
        target = dn(name)
        self._require_write(target, requestor)
        current = self.read(target, dereference=False, requestor=requestor)
        attributes = {k: list(v) for k, v in current.attributes.items()}
        for attribute in delete or []:
            attributes.pop(attribute.lower(), None)
        for attribute, values in _normalize_attributes(replace or {}).items():
            attributes[attribute] = values
        for attribute, values in _normalize_attributes(add or {}).items():
            attributes.setdefault(attribute, [])
            for value in values:
                if value not in attributes[attribute]:
                    attributes[attribute].append(value)
        self.schema.validate_entry(attributes)
        entry = Entry(target, attributes)
        self._entries[target.key] = entry
        self._record("modify", target, attributes)
        return entry

    def delete(self, name: DistinguishedName | str, requestor: str = "") -> None:
        """Remove a leaf entry (X.500 forbids deleting interior nodes)."""
        target = name if isinstance(name, DistinguishedName) else dn(name)
        self._require_write(target, requestor)
        key = target.key
        if key not in self._entries:
            raise NoSuchEntryError(f"no entry {target}")
        if self._children.get(key):
            raise DirectoryError(f"entry {target} has children; delete them first")
        del self._entries[key]
        self._children.pop(key, None)
        parent_key = target.parent().key
        self._children.get(parent_key, set()).discard(key)
        self._record("delete", target, None)

    def apply_change(self, change: ChangeRecord) -> None:
        """Replay a change record (used by shadow DSAs).

        Replay is idempotent-ish: adds overwrite, deletes ignore missing
        entries, so a shadow can re-consume an overlapping changelog.
        """
        target = dn(change.name)
        if change.operation == "add" or change.operation == "modify":
            assert change.attributes is not None
            key = target.key
            entry = Entry(target, {k: list(v) for k, v in change.attributes.items()})
            if key not in self._entries:
                parent_key = target.parent().key
                self._children.setdefault(parent_key, set()).add(key)
            self._entries[key] = entry
            self._csn = max(self._csn, change.csn)
        elif change.operation == "delete":
            key = target.key
            if key in self._entries:
                del self._entries[key]
                self._children.pop(key, None)
                self._children.get(target.parent().key, set()).discard(key)
            self._csn = max(self._csn, change.csn)
        else:
            raise DirectoryError(f"unknown change operation {change.operation!r}")

    # -- search ---------------------------------------------------------------
    def search(
        self,
        base: DistinguishedName | str,
        scope: str = SCOPE_SUBTREE,
        where: Filter | None = None,
        limit: int | None = None,
        requestor: str = "",
    ) -> list[Entry]:
        """Scoped, filtered search returning matching entries.

        ``scope`` is ``"base"`` (the base entry only), ``"one"`` (immediate
        children) or ``"subtree"`` (base and all descendants).  Entries the
        *requestor* may not read are silently omitted (X.500 directories
        hide, rather than reveal, protected subtrees).
        """
        if scope not in _SCOPES:
            raise DirectoryError(f"unknown search scope {scope!r}")
        target = dn(base)
        if not target.is_root and not self.exists(target):
            raise NoSuchEntryError(f"search base {target} does not exist")
        candidates: list[Entry]
        if scope == SCOPE_BASE:
            candidates = [] if target.is_root else [self._entries[target.key]]
        elif scope == SCOPE_ONE:
            candidates = self.children_of(target)
        else:
            candidates = []
            if not target.is_root:
                candidates.append(self._entries[target.key])
            candidates.extend(
                entry
                for entry in self._entries.values()
                if entry.name.is_descendant_of(target)
            )
        matched = [
            entry
            for entry in sorted(candidates, key=lambda e: e.name)
            if (where is None or where.matches(entry.attributes))
            and self.can_read(entry.name, requestor)
        ]
        if limit is not None:
            return matched[:limit]
        return matched
