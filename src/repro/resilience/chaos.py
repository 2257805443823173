"""Chaos schedules: composable, seeded fault suites for experiments.

:class:`ChaosRunner` turns the primitives in :mod:`repro.sim.failures`
and :mod:`repro.sim.network` into named, reproducible fault scenarios —
the kind of schedule experiment E13 replays twice (resilience on/off) so
the two runs see *exactly* the same faults:

* :meth:`flap_link` — a link repeatedly goes dark (loss forced to 1.0)
  and comes back, modelling an unstable inter-domain line,
* :meth:`degrade_link` — a *brownout*: the link stays up but drops a
  fraction of packets, the regime a consecutive-failure circuit breaker
  cannot see (successes keep resetting its streak) and the one the
  control plane's health-trend drain is built for,
* :meth:`rolling_partitions` — partition windows that sweep through a
  sequence of cut patterns, one after another,
* :meth:`crash_storm` — staggered crash/recover cycles across a set of
  nodes, with seeded jitter on the stagger.

All timing randomness comes from a forked RNG stream owned by the
runner, so a runner built with the same name over the same-seeded world
schedules the same chaos.  Every scheduled fault is recorded in
:attr:`events` for reporting.
"""

from __future__ import annotations

from typing import Any

from repro.sim.network import LinkSpec
from repro.sim.world import World
from repro.util.errors import ConfigurationError


class ChaosRunner:
    """Schedules reproducible fault suites on a :class:`World`."""

    def __init__(self, world: World, name: str = "chaos") -> None:
        self._world = world
        self._engine = world.engine
        self._rng = world.rng.fork(f"chaos:{name}")
        self.name = name
        #: every scheduled fault, as ``{"kind", "at", ...}`` records
        self.events: list[dict[str, Any]] = []

    def _record(self, kind: str, at: float, **detail: Any) -> None:
        self.events.append({"kind": kind, "at": at, **detail})

    def flap_link(
        self,
        node_a: str,
        node_b: str,
        start: float,
        down_s: float,
        up_s: float,
        flaps: int,
    ) -> None:
        """Kill the a<->b link *flaps* times: down for *down_s*, up for *up_s*.

        "Down" forces the link's loss to 1.0 (every packet silently
        dropped, like a dead line); "up" restores the spec the link had
        when the flap was scheduled.
        """
        if flaps < 1:
            raise ConfigurationError("flap_link needs flaps >= 1")
        if down_s <= 0 or up_s <= 0:
            raise ConfigurationError("flap_link needs down_s and up_s > 0")
        network = self._world.network
        healthy = network.link_between(node_a, node_b)
        dead = LinkSpec(
            latency_s=healthy.latency_s,
            bandwidth_bps=healthy.bandwidth_bps,
            loss=1.0,
            jitter_s=healthy.jitter_s,
        )
        at = start
        for _ in range(flaps):
            self._engine.schedule_at(
                at,
                lambda: network.set_link(node_a, node_b, dead),
            )
            self._engine.schedule_at(
                at + down_s,
                lambda: network.set_link(node_a, node_b, healthy),
            )
            self._record(
                "link_down", at, link=f"{node_a}<->{node_b}", until=at + down_s
            )
            at += down_s + up_s

    def degrade_link(
        self,
        node_a: str,
        node_b: str,
        start: float,
        degraded_s: float,
        loss: float,
    ) -> None:
        """Brown out the a<->b link: drop a *loss* fraction of packets
        for *degraded_s* seconds, then restore the healthy spec.

        Unlike :meth:`flap_link` the link keeps carrying traffic, so
        enough attempts still succeed to keep a consecutive-failure
        circuit breaker closed — degradation only a windowed signal
        (health trend, retry surge) can act on.
        """
        if not 0.0 < loss < 1.0:
            raise ConfigurationError(
                "degrade_link needs 0 < loss < 1 (use flap_link for an outage)"
            )
        if degraded_s <= 0:
            raise ConfigurationError("degrade_link needs degraded_s > 0")
        network = self._world.network
        healthy = network.link_between(node_a, node_b)
        lossy = LinkSpec(
            latency_s=healthy.latency_s,
            bandwidth_bps=healthy.bandwidth_bps,
            loss=loss,
            jitter_s=healthy.jitter_s,
        )
        self._engine.schedule_at(
            start,
            lambda: network.set_link(node_a, node_b, lossy),
        )
        self._engine.schedule_at(
            start + degraded_s,
            lambda: network.set_link(node_a, node_b, healthy),
        )
        self._record(
            "link_degraded",
            start,
            link=f"{node_a}<->{node_b}",
            loss=loss,
            until=start + degraded_s,
        )

    def rolling_partitions(
        self,
        patterns: list[list[list[str]]],
        start: float,
        window_s: float,
        gap_s: float = 0.0,
    ) -> None:
        """Apply each partition *pattern* in turn for *window_s* seconds.

        Windows are disjoint (*gap_s* of healthy network between them),
        scheduled through the world's :class:`FailureInjector` so each
        window heals itself without clobbering its successors.
        """
        if window_s <= 0:
            raise ConfigurationError("rolling_partitions needs window_s > 0")
        at = start
        for groups in patterns:
            self._world.failures.partition_at(groups, at=at, duration=window_s)
            self._record("partition", at, groups=groups, until=at + window_s)
            at += window_s + gap_s

    def crash_storm(
        self,
        nodes: list[str],
        start: float,
        downtime_s: float,
        stagger_s: float = 0.0,
        jitter_s: float = 0.0,
    ) -> None:
        """Crash each node in *nodes*, *stagger_s* apart, for *downtime_s*.

        *jitter_s* adds a seeded uniform offset to each crash time, so
        storms with the same seed land identically and storms with a
        different seed do not synchronise.
        """
        if downtime_s <= 0:
            raise ConfigurationError("crash_storm needs downtime_s > 0")
        at = start
        for node in nodes:
            crash_at = at + (self._rng.uniform(0.0, jitter_s) if jitter_s > 0 else 0.0)
            outage = self._world.failures.crash_at(
                node, at=crash_at, duration=downtime_s
            )
            self._record("crash", outage.start, node=node, until=outage.end)
            at += stagger_s

    def describe(self) -> dict[str, Any]:
        """The scheduled suite, ordered by fault time, for reporting."""
        return {
            "name": self.name,
            "events": sorted(self.events, key=lambda e: (e["at"], e["kind"])),
        }
