"""Application registration: how groupware plugs into the environment.

Figure 3 of the paper: applications surround the CSCW environment and
interoperate *through* it.  An :class:`AppDescriptor` declares what an
application is (its quadrant in the time-space matrix, its native document
format with a converter to the common form, the service types it exports);
the :class:`ApplicationRegistry` wires those declarations into the
environment's interchange service and trader, and routes deliveries to the
application's inbox callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.information.interchange import FormatConverter, InterchangeService
from repro.odp.objects import InterfaceRef
from repro.odp.trader import Trader
from repro.util.errors import ConfigurationError, NotRegisteredError

#: time-space matrix quadrants (Figure 1)
Q_SAME_TIME_SAME_PLACE = "same-time/same-place"
Q_SAME_TIME_DIFFERENT_PLACE = "same-time/different-place"
Q_DIFFERENT_TIME_SAME_PLACE = "different-time/same-place"
Q_DIFFERENT_TIME_DIFFERENT_PLACE = "different-time/different-place"
QUADRANTS = (
    Q_SAME_TIME_SAME_PLACE,
    Q_SAME_TIME_DIFFERENT_PLACE,
    Q_DIFFERENT_TIME_SAME_PLACE,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)

#: deliver(person_id, document, info) — info carries mode/fidelity/sender
#: and the send time ``sent_at``; a queued delivery's adds ``delivered_at``
DeliveryCallback = Callable[[str, dict[str, Any], dict[str, Any]], None]


@dataclass(slots=True)
class AppDescriptor:
    """Everything the environment needs to know about one application."""

    name: str
    quadrants: list[str]
    converter: FormatConverter | None = None
    #: service types this app exports (traded for other apps to find)
    exports: dict[str, InterfaceRef] = field(default_factory=dict)
    #: is this a CSCW application proper, or a non-CSCW app using the
    #: environment in a cooperative context (paper section 6.2's document
    #: processing example)?
    is_cscw: bool = True
    #: conversion capabilities (direct/partial converters beyond the
    #: common-form bridge) published to the environment's mediator;
    #: requires an environment built ``with_mediation()``
    capabilities: list = field(default_factory=list)
    #: native format for converter-less apps whose conversions are
    #: mediator-only (published via *capabilities*); ignored when a
    #: converter is present
    native_format: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("application needs a name")
        if not self.quadrants:
            raise ConfigurationError("application must claim at least one quadrant")
        for quadrant in self.quadrants:
            if quadrant not in QUADRANTS:
                raise ConfigurationError(f"unknown quadrant {quadrant!r}")

    @property
    def format_name(self) -> str:
        """The app's native format name ('' when it declares neither a
        converter nor a mediator-only ``native_format``)."""
        if self.converter is not None:
            return self.converter.format_name
        return self.native_format


class ApplicationRegistry:
    """Registered applications and their delivery endpoints."""

    def __init__(self, interchange: InterchangeService, trader: Trader) -> None:
        self._interchange = interchange
        self._trader = trader
        self._mediator: Any = None
        self._descriptors: dict[str, AppDescriptor] = {}
        self._callbacks: dict[str, DeliveryCallback] = {}
        self._listeners: list[Callable[[str], None]] = []

    def set_mediator(self, mediator: Any) -> None:
        """Publish registered converters to *mediator* from now on.

        Installed by ``with_mediation()``; each registration then also
        publishes the converter's to/from-common capabilities (and any
        descriptor-declared direct/partial capabilities) on the trader.
        """
        self._mediator = mediator

    def add_listener(self, listener: Callable[[str], None]) -> None:
        """Call *listener*(app_name) after every successful registration.

        The environment's resolution cache subscribes here so memoised
        format pairs are dropped when the application population grows.
        """
        self._listeners.append(listener)

    def register(
        self,
        descriptor: AppDescriptor,
        on_deliver: DeliveryCallback,
        exporter_org: str = "",
    ) -> None:
        """Register an application with the environment.

        Registration is the *only* integration step an open application
        needs (cost O(1) per app — the heart of experiment E2): the
        converter joins the interchange service, exported services are
        traded, and deliveries start flowing to *on_deliver*.
        """
        if descriptor.name in self._descriptors:
            raise ConfigurationError(f"application {descriptor.name!r} already registered")
        if descriptor.capabilities and self._mediator is None:
            raise ConfigurationError(
                f"application {descriptor.name!r} declares mediated conversion "
                "capabilities but the environment has no mediator "
                "(build with with_mediation())"
            )
        if descriptor.converter is not None:
            self._interchange.register(descriptor.converter)
            if self._mediator is not None:
                self._mediator.publish_converter(
                    descriptor.converter, exporter=descriptor.name
                )
        for capability in descriptor.capabilities:
            self._mediator.publish(capability)
        for service_type, ref in descriptor.exports.items():
            self._trader.export(
                service_type, ref, {"application": descriptor.name}, exporter=exporter_org
            )
        self._descriptors[descriptor.name] = descriptor
        self._callbacks[descriptor.name] = on_deliver
        for listener in self._listeners:
            listener(descriptor.name)

    def descriptor(self, name: str) -> AppDescriptor:
        """Look up a registered application."""
        try:
            return self._descriptors[name]
        except KeyError:
            raise NotRegisteredError(f"application {name!r} is not registered") from None

    def names(self) -> list[str]:
        """All registered application names, sorted."""
        return sorted(self._descriptors)

    def by_quadrant(self, quadrant: str) -> list[AppDescriptor]:
        """Applications claiming a quadrant."""
        if quadrant not in QUADRANTS:
            raise ConfigurationError(f"unknown quadrant {quadrant!r}")
        return [d for d in self._descriptors.values() if quadrant in d.quadrants]

    def coverage_matrix(self) -> dict[str, list[str]]:
        """quadrant -> application names (the populated Figure 1)."""
        return {
            quadrant: sorted(d.name for d in self.by_quadrant(quadrant))
            for quadrant in QUADRANTS
        }

    def callback(self, app_name: str) -> DeliveryCallback:
        """The callback that pushes a document into an application's
        inbox: a run of exchanges binds it once, and a queued delivery
        keeps it (raises :class:`~repro.util.errors.NotRegisteredError`)."""
        try:
            return self._callbacks[app_name]
        except KeyError:
            raise NotRegisteredError(f"application {app_name!r} is not registered") from None
