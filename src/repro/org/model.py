"""Organisational objects: people, roles, units, resources, projects.

Paper section 5, "The Organisational Model": *"The aim of the
organisational model is to make explicit the sharing of organisational
resources, policies and regulations.  The model is constructed from a set
of organisational objects (e.g. resources, projects, people, roles),
organisational relations and rules."*

This module defines those objects and the :class:`Organisation` aggregate;
relations live in :mod:`repro.org.relations`, rules in
:mod:`repro.org.rules`, inter-organisational policy in
:mod:`repro.org.policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.messaging.names import OrName
from repro.util.errors import ConfigurationError, UnknownObjectError


@dataclass(frozen=True)
class Person:
    """A member of an organisation."""

    person_id: str
    name: str
    organisation: str
    site: str = ""
    or_name: OrName | None = None
    directory_dn: str = ""

    def __post_init__(self) -> None:
        if not self.person_id or not self.name:
            raise ConfigurationError("person needs an id and a name")


@dataclass(frozen=True)
class Role:
    """A named organisational role (signifies access rights — section 4)."""

    role_id: str
    name: str
    organisation: str
    description: str = ""


class ResourceKind(Enum):
    """Classes of shareable organisational resources."""

    EQUIPMENT = "equipment"
    ROOM = "room"
    BUDGET = "budget"
    DOCUMENT_STORE = "document-store"
    SERVICE = "service"


@dataclass(frozen=True)
class Resource:
    """A shareable resource with finite capacity."""

    resource_id: str
    name: str
    organisation: str
    kind: ResourceKind = ResourceKind.EQUIPMENT
    capacity: int = 1

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("resource capacity must be >= 1")


@dataclass(frozen=True)
class OrgUnit:
    """A department/section within an organisation (may nest)."""

    unit_id: str
    name: str
    organisation: str
    parent_unit: str = ""


@dataclass(frozen=True)
class Project:
    """An ongoing programme of cooperative activities."""

    project_id: str
    name: str
    organisation: str
    description: str = ""


class Organisation:
    """One organisation: a registry of its objects.

    The organisation is the unit of policy: inter-organisational
    cooperation is governed by :mod:`repro.org.policy`.  Once registered
    with an :class:`~repro.org.knowledge_base.OrganisationalKnowledgeBase`,
    it writes each join and leave of its roster into that knowledge base's
    person -> organisation index, so a person added or removed here
    directly is found (or not) exactly as one written through the KB.
    """

    def __init__(self, org_id: str, name: str) -> None:
        if not org_id:
            raise ConfigurationError("organisation id must be non-empty")
        self.org_id = org_id
        self.name = name
        self._persons: dict[str, Person] = {}
        self._roles: dict[str, Role] = {}
        self._units: dict[str, OrgUnit] = {}
        self._resources: dict[str, Resource] = {}
        self._projects: dict[str, Project] = {}
        #: the person index of the knowledge base this organisation is
        #: registered with (``None`` while unregistered)
        self._person_index: dict[str, str] | None = None

    # -- registration -------------------------------------------------------
    def add_person(self, person: Person) -> Person:
        """Register a person; they must belong to this organisation.

        Raises :class:`~repro.util.errors.ConfigurationError` when the
        knowledge base this organisation is registered with already holds
        the person, here or in another organisation.
        """
        self._check_owner(person.organisation, person.person_id)
        self._check_new(self._persons, person.person_id)
        if self._person_index is not None:
            self._check_new(self._person_index, person.person_id)
            self._person_index[person.person_id] = self.org_id
        self._persons[person.person_id] = person
        return person

    def remove_person(self, person_id: str) -> Person:
        """Deregister a person (they left or moved organisation)."""
        try:
            person = self._persons.pop(person_id)
        except KeyError:
            raise UnknownObjectError(f"unknown person {person_id!r}") from None
        if self._person_index is not None:
            del self._person_index[person_id]
        return person

    def add_role(self, role: Role) -> Role:
        """Register a role."""
        self._check_owner(role.organisation, role.role_id)
        self._check_new(self._roles, role.role_id)
        self._roles[role.role_id] = role
        return role

    def add_unit(self, unit: OrgUnit) -> OrgUnit:
        """Register a unit; a non-empty parent must already exist."""
        self._check_owner(unit.organisation, unit.unit_id)
        self._check_new(self._units, unit.unit_id)
        if unit.parent_unit and unit.parent_unit not in self._units:
            raise UnknownObjectError(f"parent unit {unit.parent_unit!r} unknown")
        self._units[unit.unit_id] = unit
        return unit

    def add_resource(self, resource: Resource) -> Resource:
        """Register a resource."""
        self._check_owner(resource.organisation, resource.resource_id)
        self._check_new(self._resources, resource.resource_id)
        self._resources[resource.resource_id] = resource
        return resource

    def add_project(self, project: Project) -> Project:
        """Register a project."""
        self._check_owner(project.organisation, project.project_id)
        self._check_new(self._projects, project.project_id)
        self._projects[project.project_id] = project
        return project

    def _check_owner(self, organisation: str, object_id: str) -> None:
        if organisation != self.org_id:
            raise ConfigurationError(
                f"object {object_id!r} belongs to {organisation!r}, not {self.org_id!r}"
            )

    @staticmethod
    def _check_new(registry: dict[str, Any], object_id: str) -> None:
        if object_id in registry:
            raise ConfigurationError(f"object {object_id!r} already registered")

    # -- lookup ---------------------------------------------------------------
    def person(self, person_id: str) -> Person:
        """Look up a person."""
        return self._get(self._persons, person_id, "person")

    def get_person(self, person_id: str) -> Person | None:
        """Look up a person, or None when this organisation lacks it."""
        return self._persons.get(person_id)

    def role(self, role_id: str) -> Role:
        """Look up a role."""
        return self._get(self._roles, role_id, "role")

    def unit(self, unit_id: str) -> OrgUnit:
        """Look up a unit."""
        return self._get(self._units, unit_id, "unit")

    def resource(self, resource_id: str) -> Resource:
        """Look up a resource."""
        return self._get(self._resources, resource_id, "resource")

    def project(self, project_id: str) -> Project:
        """Look up a project."""
        return self._get(self._projects, project_id, "project")

    @staticmethod
    def _get(registry: dict[str, Any], object_id: str, kind: str) -> Any:
        try:
            return registry[object_id]
        except KeyError:
            raise UnknownObjectError(f"unknown {kind} {object_id!r}") from None

    def persons(self) -> list[Person]:
        """All registered persons."""
        return list(self._persons.values())

    def roles(self) -> list[Role]:
        """All registered roles."""
        return list(self._roles.values())

    def units(self) -> list[OrgUnit]:
        """All registered units."""
        return list(self._units.values())

    def resources(self) -> list[Resource]:
        """All registered resources."""
        return list(self._resources.values())

    def projects(self) -> list[Project]:
        """All registered projects."""
        return list(self._projects.values())
