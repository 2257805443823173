"""The four CSCW transparencies (paper section 4).

*"The CSCW environment should provide some degree of transparency to
facilitate people cooperating from different coordinates, to hide some
dimensions that are unnecessary for a cooperative activity."*

Each transparency hides one dimension of a cooperative exchange:

* **organisation** — inter-organisational policy complexity: when on, the
  environment checks policy compatibility itself; when off, senders face
  the raw policy landscape (cross-organisation exchanges fail unless they
  handle it manually).
* **time** — the synchronous/asynchronous mode: when on, absent receivers
  get store-and-forward delivery; when off, interaction requires presence.
* **view** — how applications represent data: when on, documents are
  translated between application formats through the common form; when
  off, a format mismatch is the receiver's problem (WYSIWIS applications
  deliberately bypass this one).
* **activity** — scoping: when on, events are published only within their
  activity's topic so "activities [are] not ... disturbed by other
  unrelated activities"; when off, events go to a global topic and every
  subscriber sees everything.

A :class:`TransparencyProfile` is the user-tailorable selection (section
6.1: "the user should be allowed to select their required transparency").
Experiment E4 ablates each dimension and measures the failures that
reappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.errors import ConfigurationError

#: the four dimensions, in canonical order
CSCW_DIMENSIONS = ("organisation", "time", "view", "activity")


@dataclass(frozen=True)
class TransparencyProfile:
    """Which dimensions the environment hides for a given user/binding."""

    organisation: bool = True
    time: bool = True
    view: bool = True
    activity: bool = True

    @staticmethod
    def all_on() -> "TransparencyProfile":
        """The full-transparency default."""
        return TransparencyProfile()

    @staticmethod
    def all_off() -> "TransparencyProfile":
        """The closed-world baseline: users face every dimension."""
        return TransparencyProfile(False, False, False, False)

    def without(self, dimension: str) -> "TransparencyProfile":
        """A copy with one dimension turned off (for ablations)."""
        if dimension not in CSCW_DIMENSIONS:
            raise ConfigurationError(f"unknown CSCW dimension {dimension!r}")
        return replace(self, **{dimension: False})

    def with_(self, dimension: str) -> "TransparencyProfile":
        """A copy with one dimension turned on."""
        if dimension not in CSCW_DIMENSIONS:
            raise ConfigurationError(f"unknown CSCW dimension {dimension!r}")
        return replace(self, **{dimension: True})

    def enabled_dimensions(self) -> list[str]:
        """The hidden (environment-handled) dimensions, in order."""
        return [d for d in CSCW_DIMENSIONS if getattr(self, d)]


@dataclass
class ViewRegistry:
    """Per-user view preferences over common-form documents.

    "Transparency of view means that applications can be interested or not
    in the way users view data."  A view is a set of rendering preferences
    applied when a document is presented to a user; WYSIWIS applications
    skip the registry so all participants see the identical rendering.
    """

    _views: dict[str, dict[str, str]] = field(default_factory=dict)

    def set_view(self, person_id: str, **preferences: str) -> None:
        """Set (merge) a person's view preferences."""
        self._views.setdefault(person_id, {}).update(preferences)

    def view_of(self, person_id: str) -> dict[str, str]:
        """A person's preferences (empty dict = default view)."""
        return dict(self._views.get(person_id, {}))

    def render(self, person_id: str, document: dict) -> dict:
        """Apply a person's view to a document (annotation, not mutation):
        *document* itself when they have no view, else a copy carrying it
        as ``_view``."""
        view = self._views.get(person_id)
        if not view:
            return document
        rendered = dict(document)
        rendered["_view"] = dict(view)
        return rendered
