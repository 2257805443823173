"""Role-based access control over information objects.

Paper section 4: the environment needs "appropriate access control
mechanisms.  (Traditionally, roles have been used to signify different
access rights of users.)"  An :class:`AccessControlList` grants operations
to roles (or to everyone); the :class:`AccessController` resolves a
person's roles through the organisational model and decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.org.relations import RelationStore
from repro.util.errors import AccessDeniedError, ConfigurationError

#: the operation vocabulary
OP_READ = "read"
OP_WRITE = "write"
OP_SHARE = "share"
OP_DELETE = "delete"
OPERATIONS = (OP_READ, OP_WRITE, OP_SHARE, OP_DELETE)

#: pseudo-role meaning "any authenticated person"
EVERYONE = "*"


@dataclass
class AccessControlList:
    """Grants per information object: operation -> set of role ids."""

    grants: dict[str, set[str]] = field(default_factory=dict)

    def grant(self, operation: str, role_id: str) -> "AccessControlList":
        """Allow *role_id* to perform *operation*; returns self."""
        if operation not in OPERATIONS:
            raise ConfigurationError(f"unknown operation {operation!r}")
        self.grants.setdefault(operation, set()).add(role_id)
        return self

    def permits(self, operation: str, roles: list[str]) -> bool:
        """True when any of *roles* (or everyone) is granted *operation*."""
        granted = self.grants.get(operation, set())
        if EVERYONE in granted:
            return True
        return any(role in granted for role in roles)


def owner_acl(owner_role: str) -> AccessControlList:
    """An ACL granting everything to one role and reading to everyone."""
    acl = AccessControlList()
    for operation in OPERATIONS:
        acl.grant(operation, owner_role)
    acl.grant(OP_READ, EVERYONE)
    return acl


def private_acl(owner_role: str) -> AccessControlList:
    """An ACL granting everything to one role and nothing to others."""
    acl = AccessControlList()
    for operation in OPERATIONS:
        acl.grant(operation, owner_role)
    return acl


class AccessController:
    """Decides person-level access by resolving roles organisationally."""

    def __init__(self, relations: RelationStore) -> None:
        self._relations = relations
        self._acls: dict[str, AccessControlList] = {}
        self.decisions = 0
        self.denials = 0

    def protect(self, object_id: str, acl: AccessControlList) -> None:
        """Attach an ACL to an information object id."""
        self._acls[object_id] = acl

    def allowed(
        self, person_id: str, operation: str, object_id: str, project: str | None = None
    ) -> bool:
        """Decide access; unprotected objects allow everything."""
        self.decisions += 1
        acl = self._acls.get(object_id)
        if acl is None:
            return True
        roles = self._relations.roles_of(person_id, project=project)
        decision = acl.permits(operation, roles)
        if not decision:
            self.denials += 1
        return decision

    def require(
        self, person_id: str, operation: str, object_id: str, project: str | None = None
    ) -> None:
        """Raise :class:`AccessDeniedError` unless allowed."""
        if not self.allowed(person_id, operation, object_id, project=project):
            raise AccessDeniedError(
                f"{person_id} may not {operation} {object_id}"
            )
