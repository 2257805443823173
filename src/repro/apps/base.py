"""Base machinery shared by all groupware applications.

Every application in :mod:`repro.apps` is a workalike of a system the
paper cites (COM conferencing, Object Lens, Shared X, COLAB, DOMINO) plus
one deliberately non-CSCW document processor.  Each:

* has a native document format with a :class:`FormatConverter` to the
  environment's common form,
* claims one or more quadrants of the time-space matrix (Figure 1),
* keeps one record per delivered document, in its own model (a memo, an
  entry, a file); an :class:`InboxApp` keeps a per-person :class:`Delivery` inbox,
* can run **open** (attached to a :class:`CSCWEnvironment` — Figure 3) or
  **closed** (stand-alone — Figure 2; the baseline of experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.environment.environment import CSCWEnvironment
from repro.environment.registry import AppDescriptor
from repro.information.interchange import FormatConverter
from repro.util.errors import ConfigurationError


@dataclass(slots=True)
class Delivery:
    """One document that arrived in a person's :class:`InboxApp` inbox
    (slotted: an inbox application keeps one per delivery)."""

    person_id: str
    document: dict[str, Any]


class GroupwareApp:
    """Base class: converter, open/closed attachment, delivery count."""

    #: subclasses set these
    app_name = "app"
    quadrants: list[str] = []
    is_cscw = True

    def __init__(self, instance_name: str = "") -> None:
        self.name = instance_name or self.app_name
        self._environment: CSCWEnvironment | None = None
        self.received_count = 0

    # -- format ------------------------------------------------------------
    def converter(self) -> FormatConverter:
        """The app's bridge to the common form (subclasses implement)."""
        raise NotImplementedError

    @property
    def format_name(self) -> str:
        """Native format name."""
        return self.converter().format_name

    # -- environment attachment ---------------------------------------------
    def attach(self, environment: CSCWEnvironment, exporter_org: str = "") -> None:
        """Run open: register with the environment (one step, O(1))."""
        if self._environment is not None:
            raise ConfigurationError(f"{self.name} is already attached")
        descriptor = AppDescriptor(
            name=self.name,
            quadrants=list(self.quadrants),
            converter=self.converter(),
            is_cscw=self.is_cscw,
        )
        environment.register_application(descriptor, self.deliver, exporter_org=exporter_org)
        self._environment = environment

    @property
    def is_open(self) -> bool:
        """True when attached to an environment."""
        return self._environment is not None

    # -- delivery ------------------------------------------------------------
    def deliver(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Receive a document for *person_id* (called by the environment)."""
        self.received_count += 1
        self.on_receive(person_id, document, info)

    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Subclass hook: keep the document in the app's own record (default: none)."""


class InboxApp(GroupwareApp):
    """An application whose record of a delivery is its inbox."""

    def __init__(self, instance_name: str = "") -> None:
        super().__init__(instance_name)
        self._inboxes: dict[str, list[Delivery]] = {}

    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Keep the document in *person_id*'s inbox."""
        self._inboxes.setdefault(person_id, []).append(Delivery(person_id, document))

    def inbox(self, person_id: str) -> list[Delivery]:
        """All deliveries for a person, oldest first."""
        return list(self._inboxes.get(person_id, []))
