"""The environment as an ODP service: remote access to exchange().

Figure 4 places the CSCW environment *on* the ODP platform.  This module
makes that literal: an :class:`EnvironmentServer` wraps a
:class:`~repro.environment.environment.CSCWEnvironment` in a computational
object deployed into a capsule, so workstations across the simulated
network invoke ``exchange``/``describe``/presence operations through
ordinary ODP channels — paying real network latency, crossing real
partitions, benefiting from the same distribution transparencies as any
other service.

An :class:`EnvironmentClient` is the workstation-side stub.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.environment.environment import (
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.odp.binding import BindingFactory, Channel
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import ComputationalObject, InterfaceRef, signature
from repro.sim.world import World

#: the interface every environment server offers
ENVIRONMENT_SIGNATURE = signature(
    "cscw-environment",
    "exchange",
    "describe",
    "person_arrives",
    "person_leaves",
    "pending_for",
)


class EnvironmentServer:
    """Hosts one environment's operations as a deployable ODP object."""

    def __init__(self, environment: CSCWEnvironment, object_id: str = "environment") -> None:
        self.environment = environment
        self._object = ComputationalObject(object_id)
        self._object.offer(
            ENVIRONMENT_SIGNATURE,
            {
                "exchange": self._op_exchange,
                "describe": lambda args: self.environment.describe(),
                "person_arrives": lambda args: self.environment.person_arrives(args["person"]),
                "person_leaves": self._op_person_leaves,
                "pending_for": lambda args: self.environment.pending_for(args["person"]),
            },
        )

    def deploy(self, capsule: Capsule, trade: bool = True) -> InterfaceRef:
        """Activate the server in *capsule*; optionally trade the service.

        Trading uses the environment's own trader, so organisational
        trading policy governs who can even *find* the environment.
        """
        refs = capsule.deploy(self._object)
        ref = refs["cscw-environment"]
        if trade:
            self.environment.trader.export(
                "cscw-environment", ref, {"name": self.environment.name}
            )
        return ref

    def _op_exchange(self, args: dict[str, Any]) -> dict[str, Any]:
        # The wire form *is* the ExchangeRequest document — the same
        # single call currency as the in-process exchange() surface.
        outcome = self.environment.exchange(ExchangeRequest.from_document(args))
        return asdict(outcome)

    def _op_person_leaves(self, args: dict[str, Any]) -> bool:
        self.environment.person_leaves(args["person"])
        return True


class EnvironmentClient:
    """Workstation-side access to a (possibly remote) environment server."""

    def __init__(
        self,
        world: World,
        factory: BindingFactory,
        client_node: str,
        server_ref: InterfaceRef,
    ) -> None:
        self._world = world
        self.channel: Channel = factory.bind(client_node, server_ref)

    def exchange(
        self, request: ExchangeRequest | None = None, /, *args: Any, **kwargs: Any
    ) -> ExchangeOutcome:
        """Invoke exchange() across the network; returns the outcome.

        Accepts an :class:`ExchangeRequest` — the same single call
        currency as the in-process surface — whose wire form
        (:meth:`ExchangeRequest.to_document`) travels the channel.  The
        legacy keyword form goes through :meth:`ExchangeRequest.from_call`.
        """
        request = ExchangeRequest.from_call(request, args, kwargs)
        reply = self.channel.call(self._world, "exchange", request.to_document())
        reply["handled"] = tuple(reply.get("handled", ()))
        return ExchangeOutcome(**reply)

    def describe(self) -> dict[str, Any]:
        """The environment inventory, fetched remotely."""
        return self.channel.call(self._world, "describe", {})

    def person_arrives(self, person: str) -> int:
        """Remote presence update; returns flushed delivery count."""
        return self.channel.call(self._world, "person_arrives", {"person": person})

    def person_leaves(self, person: str) -> None:
        """Remote presence update."""
        self.channel.call(self._world, "person_leaves", {"person": person})

    def pending_for(self, person: str) -> int:
        """Queued deliveries for an absent person, fetched remotely."""
        return self.channel.call(self._world, "pending_for", {"person": person})
