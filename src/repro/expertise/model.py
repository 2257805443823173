"""User expertise profiles: responsibilities and capabilities.

Paper section 5, "The User Expertise Model": *"This models is expressed in
terms of user's responsibility, which is imposed by the organisation and
user's capabilities, which describes the users individual skills."*

A :class:`Capability` is an individual skill at a level; a
:class:`Responsibility` is organisation-imposed.  The
:class:`ExpertiseRegistry` holds one :class:`ExpertiseProfile` per person
and serves the matching queries in :mod:`repro.expertise.matching`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError, UnknownObjectError

#: capability levels, 1 (novice) .. 5 (authority)
MIN_LEVEL = 1
MAX_LEVEL = 5


@dataclass(frozen=True)
class Capability:
    """An individual skill at a proficiency level."""

    skill: str
    level: int

    def __post_init__(self) -> None:
        if not self.skill:
            raise ConfigurationError("capability needs a skill name")
        if not MIN_LEVEL <= self.level <= MAX_LEVEL:
            raise ConfigurationError(
                f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {self.level}"
            )


@dataclass(frozen=True)
class Responsibility:
    """An organisation-imposed duty."""

    task: str
    imposed_by: str
    scope: str = ""

    def __post_init__(self) -> None:
        if not self.task or not self.imposed_by:
            raise ConfigurationError("responsibility needs a task and an imposer")


class ExpertiseProfile:
    """One person's capabilities and responsibilities."""

    def __init__(self, person_id: str) -> None:
        if not person_id:
            raise ConfigurationError("profile needs a person id")
        self.person_id = person_id
        self._capabilities: dict[str, Capability] = {}
        self._responsibilities: list[Responsibility] = []

    # -- capabilities --------------------------------------------------------
    def add_capability(self, skill: str, level: int) -> Capability:
        """Add or raise a capability (levels never silently decrease)."""
        capability = Capability(skill, level)
        existing = self._capabilities.get(skill)
        if existing is None or existing.level < level:
            self._capabilities[skill] = capability
        return self._capabilities[skill]

    def set_capability(self, skill: str, level: int) -> Capability:
        """Set a capability level exactly (allows decreases)."""
        capability = Capability(skill, level)
        self._capabilities[skill] = capability
        return capability

    def level_of(self, skill: str) -> int:
        """Proficiency level for *skill* (0 when absent)."""
        capability = self._capabilities.get(skill)
        return capability.level if capability is not None else 0

    def capabilities(self) -> list[Capability]:
        """All capabilities, sorted by skill."""
        return [self._capabilities[s] for s in sorted(self._capabilities)]

    # -- responsibilities ---------------------------------------------------------
    def impose(self, task: str, imposed_by: str, scope: str = "") -> Responsibility:
        """Record an organisation-imposed responsibility."""
        responsibility = Responsibility(task, imposed_by, scope)
        self._responsibilities.append(responsibility)
        return responsibility

    def discharge(self, task: str, scope: str = "") -> bool:
        """Remove a responsibility; True when it existed."""
        for responsibility in self._responsibilities:
            if responsibility.task == task and responsibility.scope == scope:
                self._responsibilities.remove(responsibility)
                return True
        return False

    def is_responsible_for(self, task: str) -> bool:
        """True when any responsibility matches *task*."""
        return any(r.task == task for r in self._responsibilities)

    def workload(self) -> int:
        """Number of open responsibilities (a crude load measure)."""
        return len(self._responsibilities)


class ExpertiseRegistry:
    """Profiles for everyone in the environment."""

    def __init__(self) -> None:
        self._profiles: dict[str, ExpertiseProfile] = {}

    def profile(self, person_id: str) -> ExpertiseProfile:
        """Get (creating on first use) a person's profile."""
        existing = self._profiles.get(person_id)
        if existing is None:
            existing = ExpertiseProfile(person_id)
            self._profiles[person_id] = existing
        return existing

    def known(self, person_id: str) -> bool:
        """True when a profile exists."""
        return person_id in self._profiles

    def get(self, person_id: str) -> ExpertiseProfile:
        """Get an existing profile (raises when unknown)."""
        try:
            return self._profiles[person_id]
        except KeyError:
            raise UnknownObjectError(f"no expertise profile for {person_id!r}") from None

    def all(self) -> list[ExpertiseProfile]:
        """All profiles."""
        return list(self._profiles.values())

    def with_skill(self, skill: str, min_level: int = MIN_LEVEL) -> list[ExpertiseProfile]:
        """Profiles having *skill* at or above *min_level*."""
        return [
            p for p in self._profiles.values() if p.level_of(skill) >= min_level
        ]
