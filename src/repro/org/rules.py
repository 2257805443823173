"""Organisational rules: role-based deontic access decisions.

Re-uses the enterprise-viewpoint deontic vocabulary
(:mod:`repro.odp.viewpoints`) but evaluates it against the organisational
model: a person is allowed an action when at least one role they play is
permitted (or obliged) to do it and no role they play is prohibited.

The paper (section 4): "appropriate access control mechanisms.
(Traditionally, roles have been used to signify different access rights of
users.)" — and warns against being "too rigid and procedural" (section
6.1), which is why rules support *exceptions*: a person-level override that
either grants or revokes regardless of roles, modelling the human factor
the office-procedure systems forgot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.odp.viewpoints import DeonticModality, PolicyStatement
from repro.org.relations import RelationStore
from repro.util.errors import AccessDeniedError


@dataclass(frozen=True)
class RuleException:
    """A person-level override of the role-derived decision."""

    person_id: str
    action: str
    target: str
    grant: bool
    justification: str = ""


@dataclass(frozen=True)
class RoleDelegation:
    """A time-bounded handover of a role's rights.

    Cooperative work routinely needs "Ana covers for Joan this week";
    rigid role systems force out-of-band workarounds (the paper's office-
    procedure warning).  A delegation lets *to_person* act under
    *role_id* until simulated time *until*.
    """

    role_id: str
    from_person: str
    to_person: str
    until: float
    justification: str = ""


class RuleEngine:
    """Evaluates role-based rules plus person-level exceptions."""

    def __init__(self, relations: RelationStore) -> None:
        self._relations = relations
        self._statements: list[PolicyStatement] = []
        self._exceptions: list[RuleException] = []
        self._delegations: list[RoleDelegation] = []
        self.evaluations = 0

    # -- authoring ----------------------------------------------------------
    def permit(self, role_id: str, action: str, target: str = "*") -> None:
        """Permit a role to perform an action."""
        self._statements.append(
            PolicyStatement(DeonticModality.PERMISSION, role_id, action, target)
        )

    def oblige(self, role_id: str, action: str, target: str = "*") -> None:
        """Oblige (and hence permit) a role to perform an action."""
        self._statements.append(
            PolicyStatement(DeonticModality.OBLIGATION, role_id, action, target)
        )

    def prohibit(self, role_id: str, action: str, target: str = "*") -> None:
        """Prohibit a role from performing an action."""
        self._statements.append(
            PolicyStatement(DeonticModality.PROHIBITION, role_id, action, target)
        )

    def add_exception(
        self, person_id: str, action: str, target: str, grant: bool, justification: str = ""
    ) -> None:
        """Add a person-level override (the 'human factor' escape hatch)."""
        self._exceptions.append(
            RuleException(person_id, action, target, grant, justification)
        )

    def delegate_role(
        self,
        role_id: str,
        from_person: str,
        to_person: str,
        until: float,
        justification: str = "",
    ) -> RoleDelegation:
        """Delegate a role's rights until simulated time *until*.

        The delegator must actually play the role (you cannot hand over
        rights you do not hold).
        """
        if role_id not in self._relations.roles_of(from_person):
            raise AccessDeniedError(
                f"{from_person} does not play role {role_id!r} and cannot delegate it"
            )
        delegation = RoleDelegation(role_id, from_person, to_person, until, justification)
        self._delegations.append(delegation)
        return delegation

    def revoke_delegation(self, role_id: str, to_person: str) -> bool:
        """Remove any active delegation of *role_id* to *to_person*."""
        before = len(self._delegations)
        self._delegations = [
            d
            for d in self._delegations
            if not (d.role_id == role_id and d.to_person == to_person)
        ]
        return len(self._delegations) < before

    def effective_roles(
        self, person_id: str, project: str | None = None, now: float = 0.0
    ) -> list[str]:
        """Played roles plus unexpired delegations at time *now*."""
        roles = set(self._relations.roles_of(person_id, project=project))
        for delegation in self._delegations:
            if delegation.to_person == person_id and now < delegation.until:
                roles.add(delegation.role_id)
        return sorted(roles)

    # -- evaluation -----------------------------------------------------------
    def allowed(
        self,
        person_id: str,
        action: str,
        target: str = "*",
        project: str | None = None,
        now: float = 0.0,
    ) -> bool:
        """Decide whether a person may perform *action* on *target*.

        *now* is the simulated time used to evaluate role delegations.
        """
        self.evaluations += 1
        for exception in self._exceptions:
            if exception.person_id == person_id and exception.action == action and (
                exception.target in ("*", target)
            ):
                return exception.grant
        roles = self.effective_roles(person_id, project=project, now=now)
        relevant = [
            s
            for s in self._statements
            if s.role in roles and s.action == action and s.target in ("*", target)
        ]
        if any(s.modality is DeonticModality.PROHIBITION for s in relevant):
            return False
        return any(
            s.modality in (DeonticModality.PERMISSION, DeonticModality.OBLIGATION)
            for s in relevant
        )

    def require(
        self,
        person_id: str,
        action: str,
        target: str = "*",
        project: str | None = None,
        now: float = 0.0,
    ) -> None:
        """Raise :class:`AccessDeniedError` unless allowed."""
        if not self.allowed(person_id, action, target, project=project, now=now):
            raise AccessDeniedError(
                f"{person_id} may not {action} on {target}"
                + (f" in project {project}" if project else "")
            )

    def obligations_of(self, person_id: str, project: str | None = None) -> list[PolicyStatement]:
        """Obligations implied by the roles a person plays."""
        roles = self._relations.roles_of(person_id, project=project)
        return [
            s
            for s in self._statements
            if s.role in roles and s.modality is DeonticModality.OBLIGATION
        ]
