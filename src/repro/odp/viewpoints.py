"""The five RM-ODP viewpoints and cross-viewpoint consistency checks.

RM-ODP describes a distributed system from five viewpoints — Enterprise,
Information, Computation, Engineering, Technology — each "a different set
of abstractions of the original system" (paper section 6.1).  This module
gives each viewpoint a small specification language and an
:class:`OdpSystemSpec` that bundles them and checks their mutual
consistency, realising the "ODP design trajectory" the paper cites [19]:
design starts from the viewpoint most appropriate to the application — for
CSCW, the enterprise or information viewpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.util.errors import ConfigurationError


class DeonticModality(Enum):
    """Kinds of enterprise-viewpoint policy statements."""

    OBLIGATION = "obligation"
    PERMISSION = "permission"
    PROHIBITION = "prohibition"


@dataclass(frozen=True)
class PolicyStatement:
    """One enterprise policy: a modality applied to a role and an action.

    Example: *permission* for role ``editor`` to perform ``modify`` on
    ``document``.
    """

    modality: DeonticModality
    role: str
    action: str
    target: str = "*"

    def applies_to(self, role: str, action: str, target: str) -> bool:
        """True when this statement governs the given role/action/target."""
        if self.role != role or self.action != action:
            return False
        return self.target in ("*", target)


@dataclass
class EnterpriseSpec:
    """Enterprise viewpoint: community, roles, and deontic policies."""

    community: str
    roles: list[str] = field(default_factory=list)
    policies: list[PolicyStatement] = field(default_factory=list)

    def add_role(self, role: str) -> None:
        """Declare a role in the community."""
        if role in self.roles:
            raise ConfigurationError(f"role {role!r} already declared")
        self.roles.append(role)

    def permit(self, role: str, action: str, target: str = "*") -> None:
        """Add a permission policy."""
        self._add(DeonticModality.PERMISSION, role, action, target)

    def oblige(self, role: str, action: str, target: str = "*") -> None:
        """Add an obligation policy."""
        self._add(DeonticModality.OBLIGATION, role, action, target)

    def prohibit(self, role: str, action: str, target: str = "*") -> None:
        """Add a prohibition policy."""
        self._add(DeonticModality.PROHIBITION, role, action, target)

    def _add(self, modality: DeonticModality, role: str, action: str, target: str) -> None:
        if role not in self.roles:
            raise ConfigurationError(f"unknown role {role!r} in community {self.community!r}")
        self.policies.append(PolicyStatement(modality, role, action, target))

    def allows(self, role: str, action: str, target: str = "*") -> bool:
        """Evaluate the policies: prohibitions dominate permissions."""
        relevant = [p for p in self.policies if p.applies_to(role, action, target)]
        if any(p.modality is DeonticModality.PROHIBITION for p in relevant):
            return False
        return any(
            p.modality in (DeonticModality.PERMISSION, DeonticModality.OBLIGATION)
            for p in relevant
        )

    def obligations_of(self, role: str) -> list[PolicyStatement]:
        """All obligations imposed on *role*."""
        return [
            p
            for p in self.policies
            if p.role == role and p.modality is DeonticModality.OBLIGATION
        ]


@dataclass(frozen=True)
class InformationInvariant:
    """An invariant the information viewpoint imposes on a schema."""

    name: str
    description: str = ""


@dataclass
class InformationSpec:
    """Information viewpoint: entity schemas and invariants."""

    schemas: dict[str, list[str]] = field(default_factory=dict)
    invariants: list[InformationInvariant] = field(default_factory=list)

    def define_schema(self, entity: str, attributes: list[str]) -> None:
        """Declare an entity type and its attribute names."""
        if entity in self.schemas:
            raise ConfigurationError(f"schema {entity!r} already defined")
        self.schemas[entity] = list(attributes)

    def conforms(self, entity: str, instance: dict) -> bool:
        """True when *instance* has exactly the declared attributes."""
        expected = self.schemas.get(entity)
        if expected is None:
            return False
        return set(instance) == set(expected)


@dataclass
class ComputationalSpec:
    """Computational viewpoint: which objects offer which interfaces."""

    #: object id -> list of interface names it offers
    objects: dict[str, list[str]] = field(default_factory=dict)

    def declare_object(self, object_id: str, interfaces: list[str]) -> None:
        """Declare a computational object and its interfaces."""
        if object_id in self.objects:
            raise ConfigurationError(f"object {object_id!r} already declared")
        self.objects[object_id] = list(interfaces)


@dataclass
class EngineeringSpec:
    """Engineering viewpoint: nodes and the placement of objects on them."""

    #: node name -> list of object ids placed there
    placements: dict[str, list[str]] = field(default_factory=dict)

    def place(self, node: str, object_id: str) -> None:
        """Assign a computational object to an engineering node."""
        self.placements.setdefault(node, []).append(object_id)

    def node_of(self, object_id: str) -> str | None:
        """The node an object is placed on, or None."""
        for node, object_ids in self.placements.items():
            if object_id in object_ids:
                return node
        return None

    def placed_objects(self) -> set[str]:
        """All object ids that have a placement."""
        return {oid for oids in self.placements.values() for oid in oids}


@dataclass
class TechnologySpec:
    """Technology viewpoint: concrete technology choices per concern."""

    choices: dict[str, str] = field(default_factory=dict)

    def choose(self, concern: str, technology: str) -> None:
        """Record a technology choice, e.g. directory -> 'X.500'."""
        self.choices[concern] = technology


@dataclass
class OdpSystemSpec:
    """A full five-viewpoint specification with consistency checking."""

    name: str
    enterprise: EnterpriseSpec = field(default_factory=lambda: EnterpriseSpec("community"))
    information: InformationSpec = field(default_factory=InformationSpec)
    computation: ComputationalSpec = field(default_factory=ComputationalSpec)
    engineering: EngineeringSpec = field(default_factory=EngineeringSpec)
    technology: TechnologySpec = field(default_factory=TechnologySpec)

    def consistency_errors(self) -> list[str]:
        """Cross-viewpoint checks; an empty list means consistent.

        Checks performed:

        * every computational object has an engineering placement;
        * every placed object is declared computationally;
        * enterprise roles are non-empty when policies exist.
        """
        errors: list[str] = []
        declared = set(self.computation.objects)
        placed = self.engineering.placed_objects()
        for object_id in sorted(declared - placed):
            errors.append(f"object {object_id!r} has no engineering placement")
        for object_id in sorted(placed - declared):
            errors.append(f"placed object {object_id!r} is not declared computationally")
        if self.enterprise.policies and not self.enterprise.roles:
            errors.append("enterprise policies exist but no roles are declared")
        return errors

    def is_consistent(self) -> bool:
        """True when no cross-viewpoint inconsistencies exist."""
        return not self.consistency_errors()
