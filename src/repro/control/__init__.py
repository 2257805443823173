"""Adaptive control plane: SLO-driven runtime reconfiguration.

PR 5's :class:`~repro.obs.slo.SLOEngine` *detects* error-budget burn;
this package *acts* on it — the management viewpoint RM-ODP prescribes
for an open distributed platform, closed into a feedback loop.  The
:class:`~repro.control.plane.ControlPlane` subscribes to three signal
surfaces:

* **SLO burn alerts** (edge-triggered, via
  :meth:`~repro.obs.slo.SLOEngine.add_burn_listener`),
* **health trends** (:meth:`~repro.resilience.health.HealthMonitor.trend`
  — success ratio and latency slope over the last
  :data:`~repro.resilience.health.TREND_WINDOW_S` of probes, so a
  *degrading* link is visible before its breaker trips),
* **gateway queue depth** (in-flight relays and per-tick retry surges).

It responds through a small set of typed, reversible
:class:`~repro.control.actions.ControlAction` s — soft-drain a
degrading gateway, boost relay attempt budgets, tighten load-shedding,
slow background shadowing — each applied with hysteresis (per-action
cool-down on the simulated clock, edge-triggered like the alerts),
logged to the :class:`~repro.obs.events.EventLog` with trace
correlation, and fully reverted after recovery.  The loop's cadence,
cool-down and thresholds are module constants of
:mod:`repro.control.plane`, the action magnitudes those of
:mod:`repro.control.actions`; no caller tunes them.

Wire it with ``Federation.attach_control()``, which manages every
gateway, environment shed limit and shadowing agreement of a
federation; experiment E15 (``benchmarks/bench_e15_control.py``) measures the loop
against the reactive and resilient baselines under identical chaos.
"""

from repro.control.actions import (
    BoostRelayBudget,
    ControlAction,
    DrainGateway,
    RebalanceShadowing,
    TightenShed,
)
from repro.control.plane import ControlPlane

__all__ = [
    "BoostRelayBudget",
    "ControlAction",
    "ControlPlane",
    "DrainGateway",
    "RebalanceShadowing",
    "TightenShed",
]
