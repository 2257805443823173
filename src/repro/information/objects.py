"""Information objects: typed, versioned, composable.

Paper section 5, "The Information Model": *"The model is expressed in terms
of information objects, the relationships between these objects (e.g.
composition, dependencies) and the access to these objects."*

An :class:`InformationObject` carries a type tag, a content document, and a
full version history.  The :class:`InformationBase` registry maintains
composition (part-of) and derivation (derived-from) relationships and
answers impact queries ("what must be reviewed when this changes?").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.errors import ConfigurationError, DependencyCycleError, UnknownObjectError


@dataclass(frozen=True)
class Version:
    """One immutable version of an object's content."""

    number: int
    content: dict[str, Any]
    author: str
    time: float
    comment: str = ""


class InformationObject:
    """A typed, versioned unit of shared information."""

    def __init__(
        self,
        object_id: str,
        info_type: str,
        content: dict[str, Any],
        owner: str,
        time: float = 0.0,
    ) -> None:
        if not object_id or not info_type:
            raise ConfigurationError("information object needs an id and a type")
        self.object_id = object_id
        self.info_type = info_type
        self.owner = owner
        self._versions: list[Version] = [Version(1, dict(content), owner, time, "created")]

    @property
    def version(self) -> int:
        """Current version number."""
        return self._versions[-1].number

    @property
    def content(self) -> dict[str, Any]:
        """Current content (a copy — objects mutate only via update)."""
        return dict(self._versions[-1].content)

    def update(self, content: dict[str, Any], author: str, time: float = 0.0, comment: str = "") -> Version:
        """Append a new version with the given content."""
        version = Version(self.version + 1, dict(content), author, time, comment)
        self._versions.append(version)
        return version

    def at_version(self, number: int) -> Version:
        """Fetch a specific version."""
        for version in self._versions:
            if version.number == number:
                return version
        raise UnknownObjectError(f"{self.object_id} has no version {number}")

    def revert(self, number: int, author: str, time: float = 0.0) -> Version:
        """Make an old version current (as a new version)."""
        old = self.at_version(number)
        return self.update(old.content, author, time, comment=f"revert to v{number}")


#: watcher(object_id, version) — fired after an update through the base
Watcher = Callable[[str, Version], None]


class InformationBase:
    """Registry of information objects and their relationships."""

    def __init__(self) -> None:
        self._objects: dict[str, InformationObject] = {}
        #: child -> parent (composition: child is part of parent)
        self._part_of: dict[str, str] = {}
        #: derived -> set of sources
        self._derived_from: dict[str, set[str]] = {}
        #: object id -> watchers notified on update ('*' watches all)
        self._watchers: dict[str, list[Watcher]] = {}

    # -- objects -----------------------------------------------------------
    def create(
        self,
        object_id: str,
        info_type: str,
        content: dict[str, Any],
        owner: str,
        time: float = 0.0,
    ) -> InformationObject:
        """Create and register a new information object."""
        if object_id in self._objects:
            raise ConfigurationError(f"information object {object_id!r} already exists")
        obj = InformationObject(object_id, info_type, content, owner, time)
        self._objects[object_id] = obj
        return obj

    def get(self, object_id: str) -> InformationObject:
        """Look up an object."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise UnknownObjectError(f"unknown information object {object_id!r}") from None

    def by_type(self, info_type: str) -> list[InformationObject]:
        """Objects of one type."""
        return [o for o in self._objects.values() if o.info_type == info_type]

    # -- updates with notification -------------------------------------------
    def watch(self, object_id: str, watcher: Watcher) -> None:
        """Register *watcher*(object_id, version) for updates to an object.

        Pass ``"*"`` as *object_id* to watch every object.  Watchers fire
        only for updates made through :meth:`update` (the cooperative
        path); direct ``InformationObject.update`` calls stay silent.
        """
        if object_id != "*":
            self.get(object_id)
        self._watchers.setdefault(object_id, []).append(watcher)

    def update(
        self,
        object_id: str,
        content: dict[str, Any],
        author: str,
        time: float = 0.0,
        comment: str = "",
    ) -> Version:
        """Update an object and notify its watchers.

        This is how "activities may share common information" becomes
        actionable: activities watching an object (or its derivation
        impact set) learn of changes the moment they land.
        """
        obj = self.get(object_id)
        version = obj.update(content, author, time, comment)
        for watcher in self._watchers.get(object_id, []):
            watcher(object_id, version)
        for watcher in self._watchers.get("*", []):
            watcher(object_id, version)
        return version

    def notify_impacted(self, object_id: str, notify: Callable[[str], None]) -> int:
        """Call *notify*(impacted_id) for every object derived from this.

        Returns the number of notifications — the "what must be reviewed
        when this changes" fan-out.
        """
        impacted = self.impact_of(object_id)
        for impacted_id in impacted:
            notify(impacted_id)
        return len(impacted)

    # -- composition -----------------------------------------------------------
    def compose(self, part_id: str, whole_id: str) -> None:
        """Declare *part* to be a component of *whole*."""
        self.get(part_id)
        self.get(whole_id)
        if part_id == whole_id:
            raise DependencyCycleError("an object cannot be part of itself")
        # Walk up from the whole; the part must not be an ancestor.
        current: str | None = whole_id
        while current is not None:
            if current == part_id:
                raise DependencyCycleError(
                    f"composing {part_id} into {whole_id} would create a cycle"
                )
            current = self._part_of.get(current)
        self._part_of[part_id] = whole_id

    def parts_of(self, whole_id: str) -> list[str]:
        """Direct components of *whole*."""
        return sorted(p for p, w in self._part_of.items() if w == whole_id)

    def whole_of(self, part_id: str) -> str | None:
        """The object *part* is a component of, if any."""
        return self._part_of.get(part_id)

    def assembly(self, whole_id: str) -> list[str]:
        """All transitive components of *whole*, breadth-first."""
        self.get(whole_id)
        result: list[str] = []
        frontier = deque(self.parts_of(whole_id))
        while frontier:
            current = frontier.popleft()
            result.append(current)
            frontier.extend(self.parts_of(current))
        return result

    # -- derivation ----------------------------------------------------------
    def derive(self, derived_id: str, source_id: str) -> None:
        """Declare that *derived* is computed/produced from *source*."""
        self.get(derived_id)
        self.get(source_id)
        if derived_id == source_id:
            raise DependencyCycleError("an object cannot derive from itself")
        if derived_id in self._transitive_sources_of(source_id):
            raise DependencyCycleError(
                f"deriving {derived_id} from {source_id} would create a cycle"
            )
        self._derived_from.setdefault(derived_id, set()).add(source_id)

    def sources_of(self, derived_id: str) -> list[str]:
        """Direct sources of *derived*."""
        return sorted(self._derived_from.get(derived_id, set()))

    def _transitive_sources_of(self, object_id: str) -> set[str]:
        seen: set[str] = set()
        frontier = deque(self._derived_from.get(object_id, set()))
        while frontier:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._derived_from.get(current, set()))
        return seen

    def impact_of(self, object_id: str) -> list[str]:
        """Everything (transitively) derived from *object_id*.

        This answers "what must be reviewed when this changes?" — the
        inter-activity 'shares common information' linkage.
        """
        self.get(object_id)
        impacted: set[str] = set()
        frontier = deque([object_id])
        while frontier:
            current = frontier.popleft()
            for derived, sources in self._derived_from.items():
                if current in sources and derived not in impacted:
                    impacted.add(derived)
                    frontier.append(derived)
        return sorted(impacted)
