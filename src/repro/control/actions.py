"""Typed, reversible reconfiguration actions the control plane applies.

Every action is a pair of idempotent state transitions over one managed
component: :meth:`ControlAction.apply` moves the component into its
remediation configuration, :meth:`ControlAction.revert` restores
exactly the configuration observed at apply time.  The base class owns
the edge-triggering bookkeeping (the ``applied`` flag — applying an
applied action or reverting an idle one is a no-op) and the
``last_transition`` timestamp the plane's hysteresis checks against,
so subclasses only state *what* changes:

* :class:`DrainGateway` — soft-drain a degrading gateway so failover
  routing prefers an intermediate path *before* the breaker opens,
* :class:`BoostRelayBudget` — open :data:`EXTRA_ATTEMPTS` more relay
  attempts on a gateway carrying diverted traffic,
* :class:`TightenShed` — scale the environment's async shed limit by
  :data:`SHED_FACTOR` so overload is refused early instead of queued,
* :class:`RebalanceShadowing` — stretch a DSA shadowing agreement's
  period by :data:`SHADOW_SLOWDOWN` so background replication yields to
  foreground exchanges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.directory.replication import ShadowingAgreement
    from repro.federation.gateway import Gateway

#: extra relay attempts granted while SLOs burn
EXTRA_ATTEMPTS = 2
#: shed-limit multiplier applied while SLOs burn
SHED_FACTOR = 0.5
#: shadowing period multiplier applied while SLOs burn
SHADOW_SLOWDOWN = 4.0


class ControlAction:
    """One reversible reconfiguration; subclasses define the transitions.

    State machine: idle → (``apply``) → applied → (``revert``) → idle.
    Both transitions are idempotent and return whether anything changed;
    ``last_transition`` records the simulated time of the latest real
    transition (``-inf`` before the first), which is what the control
    plane's cool-down compares against.
    """

    #: short action type tag, recorded with control events
    kind = "action"

    def __init__(self, target: str) -> None:
        self.target = target
        self.applied = False
        self.last_transition = float("-inf")
        self.applies = 0
        self.reverts = 0

    def apply(self, now: float) -> bool:
        """Apply the remediation (idempotent); True when state changed."""
        if self.applied or not self._do_apply():
            return False
        self.applied = True
        self.last_transition = now
        self.applies += 1
        return True

    def revert(self, now: float) -> bool:
        """Undo the remediation (idempotent); True when state changed."""
        if not self.applied:
            return False
        self._do_revert()
        self.applied = False
        self.last_transition = now
        self.reverts += 1
        return True

    def _do_apply(self) -> bool:
        """Subclass hook: perform the change; False declines (no-op)."""
        raise NotImplementedError

    def _do_revert(self) -> None:
        """Subclass hook: restore the configuration saved at apply."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """JSON-able state snapshot, for ``ControlPlane.describe()``."""
        return {
            "kind": self.kind,
            "target": self.target,
            "applied": self.applied,
            "applies": self.applies,
            "reverts": self.reverts,
        }


class DrainGateway(ControlAction):
    """Soft-drain a gateway: failover routing steers around it.

    Applies :meth:`~repro.federation.gateway.Gateway.drain`, making
    ``ready()`` report False while still admitting relays that have no
    alternative route — a pre-emptive, gentler cousin of the breaker
    tripping.
    """

    kind = "drain-gateway"

    def __init__(self, target: str, gateway: "Gateway") -> None:
        super().__init__(target)
        self._gateway = gateway

    def _do_apply(self) -> bool:
        self._gateway.drain()
        return True

    def _do_revert(self) -> None:
        self._gateway.undrain()


class BoostRelayBudget(ControlAction):
    """Grant a gateway extra relay attempts while it absorbs load."""

    kind = "boost-relay-budget"

    def __init__(self, target: str, gateway: "Gateway") -> None:
        super().__init__(target)
        self._gateway = gateway
        self._saved: int | None = None

    def _do_apply(self) -> bool:
        self._saved = self._gateway.max_attempts
        self._gateway.set_attempt_budget(self._saved + EXTRA_ATTEMPTS)
        return True

    def _do_revert(self) -> None:
        if self._saved is not None:
            self._gateway.set_attempt_budget(self._saved)
            self._saved = None


class TightenShed(ControlAction):
    """Scale an environment's async shed limit down under pressure.

    Declines (stays idle) when the environment has no shed limit
    configured — the control plane tightens an existing admission
    policy, it does not invent one.
    """

    kind = "tighten-shed"

    def __init__(self, target: str, environment: Any) -> None:
        super().__init__(target)
        self._env = environment
        self._saved: int | None = None

    def _do_apply(self) -> bool:
        limit = self._env.shed_limit
        if limit is None:
            return False
        self._saved = limit
        self._env.set_shed_limit(max(1, int(limit * SHED_FACTOR)))
        return True

    def _do_revert(self) -> None:
        if self._saved is not None:
            self._env.set_shed_limit(self._saved)
            self._saved = None


class RebalanceShadowing(ControlAction):
    """Stretch a shadowing agreement's pull period while load is high."""

    kind = "rebalance-shadowing"

    def __init__(self, target: str, agreement: "ShadowingAgreement") -> None:
        super().__init__(target)
        self._agreement = agreement
        self._saved: float | None = None

    def _do_apply(self) -> bool:
        self._saved = self._agreement.period_s
        self._agreement.set_period(self._saved * SHADOW_SLOWDOWN)
        return True

    def _do_revert(self) -> None:
        if self._saved is not None:
            self._agreement.set_period(self._saved)
            self._saved = None
