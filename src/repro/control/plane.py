"""The feedback loop: signals in, reversible reconfiguration out.

The :class:`ControlPlane` runs one
:class:`~repro.sim.engine.PeriodicTask` on the simulated clock.  Each
tick it evaluates the signal surfaces of every managed component and
drives the matching :class:`~repro.control.actions.ControlAction`
transitions:

* a **gateway** is *degrading* when its per-tick retry delta reaches
  ``retry_surge`` with relays in flight (queue-depth signal), or when
  its health trend's success ratio falls to ``degrade_ratio`` — both
  fire *before* the circuit breaker's consecutive-failure threshold,
  which is the point: soft-drain the link while the breaker is still
  closed, and failover routing steers around it immediately,
* a drained gateway *recovers* when its trend is clean again (ratio at
  ``recover_ratio`` with the last probe healthy) and no surge is live,
* **SLO burn** (any watched objective alerting) applies the
  load-management set — boost relay budgets, tighten shedding, slow
  shadowing — and the alert clearing reverts it.

Every transition is **edge-triggered** (the action's ``applied`` flag)
and guarded by **hysteresis**: a transition within ``cooldown_s`` of
the action's last one is suppressed (counted as ``control.suppressed``)
so a flapping signal cannot ping-pong the configuration.  Applied and
reverted transitions are recorded as ``control-action`` /
``control-revert`` events with the trace id of the span the transition
ran under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.control.actions import (
    BoostRelayBudget,
    ControlAction,
    DrainGateway,
    RebalanceShadowing,
    TightenShed,
)
from repro.obs.events import (
    KIND_CONTROL_ACTION,
    KIND_CONTROL_REVERT,
    NULL_EVENTS,
    EventLog,
)
from repro.obs.metrics import NULL_METRICS, GaugeFamily, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.obs.windows import WindowedCounter
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.directory.replication import ShadowingAgreement
    from repro.federation.gateway import Gateway
    from repro.obs.slo import SLOEngine
    from repro.resilience.health import HealthMonitor
    from repro.sim.engine import Engine, PeriodicTask


@dataclass(frozen=True)
class ControlPolicy:
    """Tuning knobs of the control loop (all times simulated seconds).

    The defaults detect a degrading gateway within roughly one exchange
    interval of the acceptance benchmark — fast enough to beat the
    breaker's consecutive-failure threshold — while ``cooldown_s``
    keeps a flapping link from ping-ponging the configuration.
    """

    #: evaluation cadence of the loop
    tick_s: float = 0.25
    #: minimum sim-time between two transitions of the same action
    cooldown_s: float = 5.0
    #: health-trend window consulted per gateway
    trend_window_s: float = 10.0
    #: trend success ratio at/below which a link counts as degrading
    degrade_ratio: float = 0.75
    #: trend success ratio at/above which a drained link may recover
    recover_ratio: float = 0.9
    #: windowed gateway retry count that flags a surge
    retry_surge: int = 1
    #: ticks of retry history the surge window spans (1 = per-tick delta)
    retry_window_ticks: int = 1
    #: in-flight relays required for a surge to count (depth signal)
    queue_depth_limit: int = 1
    #: extra relay attempts granted while SLOs burn
    extra_attempts: int = 2
    #: shed-limit multiplier applied while SLOs burn
    shed_factor: float = 0.5
    #: shadowing period multiplier applied while SLOs burn
    shadow_slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ConfigurationError("control tick_s must be > 0")
        if self.cooldown_s < 0:
            raise ConfigurationError("control cooldown_s must be >= 0")
        if self.trend_window_s <= 0:
            raise ConfigurationError("control trend_window_s must be > 0")
        if self.retry_window_ticks < 1:
            raise ConfigurationError("control retry_window_ticks must be >= 1")


@dataclass
class _ManagedGateway:
    """One gateway under management and its drain action + signal memo.

    ``retry_window`` holds the gateway's retry deltas over the last
    ``retry_window_ticks`` control ticks (one ring slot per tick), so
    the surge signal is a sliding-window count, not a cumulative
    difference kept by hand.
    """

    key: str
    gateway: "Gateway"
    health: "HealthMonitor | None"
    drain: DrainGateway
    retry_window: WindowedCounter | None = None
    last_retries: int = 0


@dataclass
class _BurnDriven:
    """One action applied while any watched SLO burns."""

    action: ControlAction
    reason: str = field(default="slo-burn")


class ControlPlane:
    """Subscribes to burn/health/queue signals; applies typed actions."""

    def __init__(
        self,
        engine: "Engine",
        policy: ControlPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._engine = engine
        self.policy = policy if policy is not None else ControlPolicy()
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._task: "PeriodicTask | None" = None
        self._gateways: dict[str, _ManagedGateway] = {}
        self._burn_driven: list[_BurnDriven] = []
        #: objectives currently in a burn episode (named by the SLOEngine)
        self.burning: set[str] = set()
        self.actions_applied = 0
        self.actions_reverted = 0
        self.suppressed = 0
        self._obs: MetricsRegistry = (metrics or NULL_METRICS).read(self, {
            "control.actions": lambda: self.actions_applied,
            "control.reverts": lambda: self.actions_reverted,
            "control.suppressed": lambda: self.suppressed,
        })
        self._retry_gauges: GaugeFamily = self._obs.gauge(
            "control.gateway.windowed_retries", labels=("key",)
        )

    # -- signal sources ----------------------------------------------------
    def watch_slo(self, slo: "SLOEngine") -> "ControlPlane":
        """Subscribe to *slo*'s edge-triggered burn alerts."""
        slo.add_burn_listener(self._on_burn)
        return self

    def _on_burn(self, name: str, burning: bool, status: dict[str, Any]) -> None:
        if burning:
            self.burning.add(name)
        else:
            self.burning.discard(name)
        if self._obs.enabled:
            self._obs.set_gauge("control.burning", len(self.burning))

    # -- managed components ------------------------------------------------
    def manage_gateway(
        self,
        key: str,
        gateway: "Gateway",
        health: "HealthMonitor | None" = None,
    ) -> "ControlPlane":
        """Manage one directed gateway: pre-emptive drain plus burn-time
        attempt-budget boost.

        *health* (when given) must be probing *key*; its
        :meth:`~repro.resilience.health.HealthMonitor.trend` is the
        degradation/recovery signal.  Without it the loop falls back to
        the gateway's own retry-surge/queue-depth signals alone.
        """
        if key in self._gateways:
            raise ConfigurationError(f"already managing gateway {key!r}")
        ticks = self.policy.retry_window_ticks
        self._gateways[key] = _ManagedGateway(
            key=key,
            gateway=gateway,
            health=health,
            drain=DrainGateway(key, gateway),
            retry_window=WindowedCounter(ticks * self.policy.tick_s, ticks),
            last_retries=gateway.retries,
        )
        self._burn_driven.append(
            _BurnDriven(BoostRelayBudget(key, gateway, self.policy.extra_attempts))
        )
        return self

    def manage_environment(self, key: str, environment: Any) -> "ControlPlane":
        """Tighten *environment*'s shed limit while watched SLOs burn."""
        self._burn_driven.append(
            _BurnDriven(TightenShed(key, environment, self.policy.shed_factor))
        )
        return self

    def manage_shadowing(
        self, key: str, agreement: "ShadowingAgreement"
    ) -> "ControlPlane":
        """Slow *agreement*'s pull cadence while watched SLOs burn."""
        self._burn_driven.append(
            _BurnDriven(
                RebalanceShadowing(key, agreement, self.policy.shadow_slowdown)
            )
        )
        return self

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ControlPlane":
        """Arm the periodic evaluation tick (idempotent); returns self.

        A running plane keeps the engine queue non-empty — prefer
        ``world.run_for`` over ``world.run`` while it is live.
        """
        from repro.sim.engine import PeriodicTask

        if self._task is None:
            self._task = PeriodicTask(self._engine, self.policy.tick_s, self._tick).start()
        return self

    def stop(self) -> None:
        """Stop evaluating (applied actions stay applied)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- the loop ----------------------------------------------------------
    def _tick(self) -> None:
        now = self._engine.now
        for managed in self._gateways.values():
            self._evaluate_gateway(managed, now)
        burning = bool(self.burning)
        reason = (
            f"slo-burn:{min(self.burning)}" if burning else "burn-cleared"
        )
        for entry in self._burn_driven:
            self._transition(entry.action, burning, reason, now)
        if self._obs.enabled:
            applied = sum(
                1 for a in self._all_actions() if a.applied
            )
            self._obs.set_gauge("control.active_actions", applied)

    def _evaluate_gateway(self, managed: _ManagedGateway, now: float) -> None:
        gateway = managed.gateway
        managed.retry_window.push(gateway.retries - managed.last_retries)
        managed.last_retries = gateway.retries
        windowed_retries = managed.retry_window.delta()
        if self._obs.enabled:
            self._retry_gauges.labels(key=managed.key).set(windowed_retries)
        surge = (
            windowed_retries >= self.policy.retry_surge
            and gateway.in_flight >= self.policy.queue_depth_limit
        )
        trend = (
            managed.health.trend(managed.key, self.policy.trend_window_s)
            if managed.health is not None
            else None
        )
        degrading = surge or (
            trend is not None
            and trend.samples > 0
            and trend.success_ratio <= self.policy.degrade_ratio
        )
        if degrading:
            self._transition(
                managed.drain,
                True,
                "retry-surge" if surge else "health-trend",
                now,
            )
            return
        if trend is not None and trend.samples > 0:
            recovered = (
                trend.success_ratio >= self.policy.recover_ratio
                and managed.health.healthy(managed.key)
            )
        else:
            recovered = gateway.in_flight == 0
        if recovered:
            self._transition(managed.drain, False, "recovered", now)

    def _transition(
        self, action: ControlAction, want_applied: bool, reason: str, now: float
    ) -> None:
        """Drive *action* towards *want_applied* under hysteresis."""
        if action.applied == want_applied:
            return
        if now - action.last_transition < self.policy.cooldown_s:
            self.suppressed += 1
            return
        name = "control.apply" if want_applied else "control.revert"
        with self._tracer.span(
            name, action=action.kind, target=action.target, reason=reason
        ) as span:
            changed = (
                action.apply(now) if want_applied else action.revert(now)
            )
            if not changed:
                return
            if want_applied:
                self.actions_applied += 1
            else:
                self.actions_reverted += 1
            if self._events.enabled:
                self._events.record(
                    now,
                    KIND_CONTROL_ACTION if want_applied else KIND_CONTROL_REVERT,
                    trace_id=span.trace_id,
                    action=action.kind,
                    target=action.target,
                    reason=reason,
                )

    # -- introspection -----------------------------------------------------
    def _all_actions(self) -> list[ControlAction]:
        actions: list[ControlAction] = [m.drain for m in self._gateways.values()]
        actions.extend(entry.action for entry in self._burn_driven)
        return actions

    def describe(self) -> dict[str, Any]:
        """JSON-able loop state: burning set, action states, counters."""
        return {
            "burning": sorted(self.burning),
            "actions": [action.describe() for action in self._all_actions()],
            "applied": self.actions_applied,
            "reverted": self.actions_reverted,
            "suppressed": self.suppressed,
        }

    def fully_reverted(self) -> bool:
        """True when no action is currently applied (post-recovery check)."""
        return not any(action.applied for action in self._all_actions())
