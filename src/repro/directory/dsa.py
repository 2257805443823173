"""The Directory Service Agent: a DIT served as an ODP object.

The DSA wraps a :class:`~repro.directory.dit.DirectoryInformationTree` in a
computational object offering the ``directory`` interface, so that the
directory is traded, bound and invoked exactly like any other ODP service —
the "smooth integration" of standard repositories the paper asks for.
"""

from __future__ import annotations

from typing import Any

from repro.directory.dit import SCOPE_SUBTREE, DirectoryInformationTree, Entry
from repro.directory.filters import Filter, parse_filter
from repro.directory.schema import Schema
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import ComputationalObject, InterfaceRef, signature

#: the interface signature every DSA offers
DIRECTORY_SIGNATURE = signature(
    "directory",
    "read",
    "search",
    "add",
    "modify",
    "delete",
    "children",
    "changes_since",
    "csn",
)


class DirectoryServiceAgent:
    """One DSA: a named DIT deployable into a capsule."""

    def __init__(self, dsa_id: str, schema: Schema | None = None) -> None:
        self.dsa_id = dsa_id
        self.dit = DirectoryInformationTree(schema)
        self._object = ComputationalObject(dsa_id)
        self._object.offer(
            DIRECTORY_SIGNATURE,
            {
                "read": self._op_read,
                "search": self._op_search,
                "add": self._op_add,
                "modify": self._op_modify,
                "delete": self._op_delete,
                "children": self._op_children,
                "changes_since": self._op_changes_since,
                "csn": self._op_csn,
            },
        )

    def deploy(self, capsule: Capsule) -> InterfaceRef:
        """Activate this DSA in *capsule*; return its directory ref."""
        refs = capsule.deploy(self._object)
        return refs["directory"]

    # -- operation handlers (wire documents in, wire documents out) --------
    def _op_read(self, args: dict[str, Any]) -> dict[str, Any]:
        return self.dit.read(
            args["dn"],
            dereference=args.get("dereference", True),
            requestor=args.get("requestor", ""),
        ).to_document()

    def _op_search(self, args: dict[str, Any]) -> list[dict[str, Any]]:
        where: Filter | None = None
        if args.get("filter") is not None:
            where = Filter.from_document(args["filter"])
        entries = self.dit.search(
            args.get("base", ""),
            scope=args.get("scope", SCOPE_SUBTREE),
            where=where,
            limit=args.get("limit"),
            requestor=args.get("requestor", ""),
        )
        return [entry.to_document() for entry in entries]

    def _op_add(self, args: dict[str, Any]) -> dict[str, Any]:
        return self.dit.add(
            args["dn"], args["attributes"], requestor=args.get("requestor", "")
        ).to_document()

    def _op_modify(self, args: dict[str, Any]) -> dict[str, Any]:
        return self.dit.modify(
            args["dn"],
            add=args.get("add"),
            replace=args.get("replace"),
            delete=args.get("delete"),
            requestor=args.get("requestor", ""),
        ).to_document()

    def _op_delete(self, args: dict[str, Any]) -> bool:
        self.dit.delete(args["dn"], requestor=args.get("requestor", ""))
        return True

    def _op_children(self, args: dict[str, Any]) -> list[dict[str, Any]]:
        return [entry.to_document() for entry in self.dit.children_of(args.get("dn", ""))]

    def _op_changes_since(self, args: dict[str, Any]) -> list[dict[str, Any]]:
        return [change._asdict() for change in self.dit.changes_since(args["csn"])]

    def _op_csn(self, args: dict[str, Any]) -> int:
        return self.dit.csn


def parse_where(where: "Filter | str | None") -> Filter | None:
    """Accept a Filter, an LDAP-style string, or None."""
    if where is None or isinstance(where, Filter):
        return where
    return parse_filter(where)


def entries_from_documents(documents: list[dict[str, Any]]) -> list[Entry]:
    """Convert a list of wire documents back to entries."""
    return [Entry.from_document(d) for d in documents]
