"""Typed organisational relations.

The organisational model is "constructed from a set of organisational
objects ..., organisational relations and rules" (paper section 5).  A
:class:`RelationStore` holds typed edges between object ids and answers the
queries the environment needs: which roles does a person play (optionally
scoped to a project), who is in a unit, who manages whom, which resources a
project uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.errors import ConfigurationError


class RelationKind(Enum):
    """The relation vocabulary of the organisational model."""

    MEMBER_OF = "member-of"          # person -> unit | project
    PLAYS_ROLE = "plays-role"        # person -> role (scope: project or "")
    REPORTS_TO = "reports-to"        # person -> person
    MANAGES = "manages"              # person -> unit | project
    OWNS = "owns"                    # unit | project -> resource
    USES = "uses"                    # project -> resource
    PART_OF = "part-of"              # unit -> unit


@dataclass(frozen=True)
class Relation:
    """One typed, optionally scoped edge between organisational objects."""

    kind: RelationKind
    source: str
    target: str
    scope: str = ""

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ConfigurationError("relation endpoints must be non-empty")


class RelationStore:
    """Holds relations and answers structural queries."""

    def __init__(self) -> None:
        self._relations: list[Relation] = []
        self._index: set[Relation] = set()

    def relate(self, kind: RelationKind, source: str, target: str, scope: str = "") -> Relation:
        """Add a relation (idempotent — duplicates are ignored)."""
        relation = Relation(kind, source, target, scope)
        if relation not in self._index:
            self._relations.append(relation)
            self._index.add(relation)
        return relation

    def unrelate(self, kind: RelationKind, source: str, target: str, scope: str = "") -> bool:
        """Remove a relation; True when it existed."""
        relation = Relation(kind, source, target, scope)
        if relation in self._index:
            self._index.discard(relation)
            self._relations.remove(relation)
            return True
        return False

    def targets(self, kind: RelationKind, source: str, scope: str | None = None) -> list[str]:
        """All targets related from *source* by *kind* (any scope when None)."""
        return [
            r.target
            for r in self._relations
            if r.kind is kind and r.source == source and (scope is None or r.scope == scope)
        ]

    def sources(self, kind: RelationKind, target: str, scope: str | None = None) -> list[str]:
        """All sources related to *target* by *kind*."""
        return [
            r.source
            for r in self._relations
            if r.kind is kind and r.target == target and (scope is None or r.scope == scope)
        ]

    # -- convenience queries ---------------------------------------------------
    def roles_of(self, person_id: str, project: str | None = None) -> list[str]:
        """Role ids a person plays; *project* scoping includes global roles."""
        if project is None:
            return self.targets(RelationKind.PLAYS_ROLE, person_id)
        scoped = self.targets(RelationKind.PLAYS_ROLE, person_id, scope=project)
        global_ = self.targets(RelationKind.PLAYS_ROLE, person_id, scope="")
        return sorted(set(scoped) | set(global_))

    def players_of(self, role_id: str, project: str | None = None) -> list[str]:
        """Person ids playing a role."""
        if project is None:
            return self.sources(RelationKind.PLAYS_ROLE, role_id)
        scoped = self.sources(RelationKind.PLAYS_ROLE, role_id, scope=project)
        global_ = self.sources(RelationKind.PLAYS_ROLE, role_id, scope="")
        return sorted(set(scoped) | set(global_))

    def members_of(self, container_id: str) -> list[str]:
        """Person ids that are members of a unit or project."""
        return self.sources(RelationKind.MEMBER_OF, container_id)

    def memberships_of(self, person_id: str) -> list[str]:
        """Units/projects a person is a member of."""
        return self.targets(RelationKind.MEMBER_OF, person_id)

    def management_chain(self, person_id: str, limit: int = 32) -> list[str]:
        """The person's reports-to chain, nearest manager first."""
        chain: list[str] = []
        current = person_id
        while len(chain) < limit:
            managers = self.targets(RelationKind.REPORTS_TO, current)
            if not managers:
                break
            manager = managers[0]
            if manager in chain or manager == person_id:
                break  # defensive against cycles
            chain.append(manager)
            current = manager
        return chain

    def resources_of(self, project_id: str) -> list[str]:
        """Resources a project owns or uses."""
        return sorted(
            set(self.targets(RelationKind.OWNS, project_id))
            | set(self.targets(RelationKind.USES, project_id))
        )

    def shared_resources(self, project_a: str, project_b: str) -> list[str]:
        """Resources used by both projects (the paper's 'common resources')."""
        return sorted(set(self.resources_of(project_a)) & set(self.resources_of(project_b)))
