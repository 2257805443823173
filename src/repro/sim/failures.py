"""Failure injection for robustness experiments.

Experiment E6 (DESIGN.md) exercises delivery ratios under node crashes and
partitions; tests use the injector for failure-path coverage.  All schedules
run on simulated time and all randomness comes from the injector's RNG
stream.

Overlapping windows compose correctly: a node recovers only when *no*
scheduled outage still covers the current instant (a manual crash window
and a ``random_crashes`` window for the same node do not resurrect the
node mid-outage), and a partition window's heal is scoped to that window
— when a later partition window is still active, healing the earlier one
re-asserts the later instead of clearing everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import Network
from repro.sim.rng import SeededRng
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class PlannedOutage:
    """A recorded crash/recovery window for reporting."""

    node: str
    start: float
    end: float


@dataclass(frozen=True)
class PlannedPartition:
    """A recorded partition window (groups + duration) for reporting."""

    groups: tuple[tuple[str, ...], ...]
    start: float
    end: float

    def covers(self, time: float) -> bool:
        """True while the window is active at *time*."""
        return self.start <= time < self.end


class FailureInjector:
    """Schedules crashes, recoveries and partitions on a network."""

    def __init__(self, network: Network, rng: SeededRng | None = None) -> None:
        self._network = network
        self._engine = network.engine
        self._rng = rng if rng is not None else network.rng.fork("failures")
        self._outages: list[PlannedOutage] = []
        self._partitions: list[PlannedPartition] = []

    @property
    def planned_outages(self) -> list[PlannedOutage]:
        """All crash windows scheduled so far."""
        return list(self._outages)

    @property
    def planned_partitions(self) -> list[PlannedPartition]:
        """All partition windows scheduled so far."""
        return list(self._partitions)

    def crash_at(self, node: str, at: float, duration: float | None = None) -> PlannedOutage:
        """Crash *node* at simulated time *at*; recover after *duration*.

        With ``duration=None`` the node stays down forever.  Recovery
        respects every scheduled outage: the node comes back only when no
        other window (from this or any overlapping schedule) still covers
        the recovery instant.
        """
        self._network.node(node)
        if at < self._engine.now:
            raise ConfigurationError("cannot schedule a crash in the past")
        self._engine.schedule_at(at, lambda: self._network.node(node).crash())
        end = float("inf")
        if duration is not None:
            if duration <= 0:
                raise ConfigurationError("duration must be > 0")
            end = at + duration
            self._engine.schedule_at(end, lambda: self._maybe_recover(node))
        outage = PlannedOutage(node=node, start=at, end=end)
        self._outages.append(outage)
        return outage

    def _maybe_recover(self, node: str) -> None:
        """Recover *node* unless another outage window still covers now."""
        now = self._engine.now
        for outage in self._outages:
            if outage.node == node and outage.start <= now < outage.end:
                return
        self._network.node(node).recover()

    def partition_at(
        self, groups: list[list[str]], at: float, duration: float | None = None
    ) -> PlannedPartition:
        """Partition the network into *groups* at time *at*; heal after *duration*.

        The heal is scoped to this window: when another partition window
        is still active at heal time, that window's cut is re-asserted
        instead of clearing the network (the network holds one partition
        at a time; the latest-started active window wins).
        """
        if at < self._engine.now:
            raise ConfigurationError("cannot schedule a partition in the past")
        end = float("inf")
        if duration is not None:
            if duration <= 0:
                raise ConfigurationError("duration must be > 0")
            end = at + duration
        window = PlannedPartition(
            groups=tuple(tuple(group) for group in groups), start=at, end=end
        )
        self._partitions.append(window)
        self._engine.schedule_at(
            at, lambda: self._network.partition([list(g) for g in window.groups])
        )
        if duration is not None:
            self._engine.schedule_at(end, lambda: self._heal_window(window))
        return window

    def _heal_window(self, window: PlannedPartition) -> None:
        """End one partition window; re-assert any window still active."""
        now = self._engine.now
        active = [w for w in self._partitions if w.covers(now)]
        if active:
            latest = max(active, key=lambda w: w.start)
            self._network.partition([list(g) for g in latest.groups])
        else:
            self._network.heal()

    def random_crashes(
        self,
        horizon: float,
        rate_per_node: float,
        mean_downtime: float,
        nodes: list[str] | None = None,
    ) -> list[PlannedOutage]:
        """Schedule Poisson crash/recover cycles over [now, now+horizon].

        Each listed node independently crashes at exponential inter-arrival
        times with the given rate; downtime is exponential with
        *mean_downtime*.  Returns the planned outages.
        """
        if rate_per_node <= 0:
            raise ConfigurationError("rate_per_node must be > 0")
        names = nodes if nodes is not None else [n.name for n in self._network.nodes()]
        planned: list[PlannedOutage] = []
        for name in names:
            t = self._engine.now
            while True:
                t += self._rng.exponential(1.0 / rate_per_node)
                if t >= self._engine.now + horizon:
                    break
                downtime = self._rng.exponential(mean_downtime)
                planned.append(self.crash_at(name, t, duration=downtime))
                t += downtime
        return planned
