"""Directory shadowing: consumer-initiated incremental replication.

A shadow DSA periodically pulls the master's changelog (``changes_since``)
over an ODP channel and replays it into its own DIT.  This models X.525
DISP shadowing closely enough for the experiments: reads can be served
locally at each site while writes go to the master, and the staleness
window equals the pull period.

Failed pulls (master down, partition) back off exponentially — a dead
master is probed at ``period_s * backoff_factor ** streak`` (capped at
``max_backoff_s``) instead of hammered at full cadence — and the first
successful pull resets the cadence.  An optional
:class:`~repro.resilience.breaker.CircuitBreaker` gates each pull: while
it is open the pull is skipped outright (``skipped_pulls``) and the
cadence keeps ticking, so a dead master costs nothing but a breaker
check until its cooldown lets a trial pull through.  An attached metrics
registry reads the pull tallies as ``directory.shadow.*`` counters.
"""

from __future__ import annotations

from typing import Any

from repro.directory.dit import ChangeRecord
from repro.directory.dsa import DirectoryServiceAgent
from repro.obs.events import KIND_SHADOW_PULL_FAILED, NULL_EVENTS, EventLog
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.odp.binding import BindingFactory, Channel
from repro.odp.objects import InterfaceRef
from repro.resilience.breaker import CircuitBreaker
from repro.sim.engine import EventHandle
from repro.sim.world import World
from repro.util.errors import ConfigurationError


class ShadowingAgreement:
    """Keeps one shadow DSA in sync with a master DSA.

    The agreement runs on simulated time: every *period_s* the shadow asks
    the master for changes after its high-water mark and replays them.
    Each periodic pull re-arms the next one when it completes, with the
    delay stretched by the current failure streak — shadowing stays
    eventually consistent while an unreachable master is left in peace.
    """

    def __init__(
        self,
        world: World,
        factory: BindingFactory,
        shadow: DirectoryServiceAgent,
        shadow_node: str,
        master_ref: InterfaceRef,
        period_s: float = 30.0,
        backoff_factor: float = 2.0,
        max_backoff_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
        events: EventLog | None = None,
    ) -> None:
        self._world = world
        self._shadow = shadow
        self._channel: Channel = factory.bind(shadow_node, master_ref)
        self._period_s = period_s
        self._backoff_factor = backoff_factor
        self._max_backoff_s = (
            max_backoff_s if max_backoff_s is not None else period_s * 8
        )
        self._high_water = 0
        self._running = False
        self._pending: EventHandle | None = None
        self._fail_streak = 0
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self.breaker = breaker
        self.pulls = 0
        self.changes_applied = 0
        self.failed_pulls = 0
        #: pulls skipped because the breaker was open
        self.skipped_pulls = 0
        #: pulls that completed successfully (whether or not changes came)
        self.syncs = 0
        (metrics or NULL_METRICS).read(self, {
            "directory.shadow.pulls": lambda: self.pulls,
            "directory.shadow.skipped": lambda: self.skipped_pulls,
            "directory.shadow.syncs": lambda: self.syncs,
            "directory.shadow.failures": lambda: self.failed_pulls,
            "directory.shadow.changes_applied": lambda: self.changes_applied,
        })

    @property
    def high_water(self) -> int:
        """Highest master CSN the shadow has applied."""
        return self._high_water

    @property
    def current_period_s(self) -> float:
        """Delay until the next periodic pull, backoff included."""
        return min(
            self._period_s * (self._backoff_factor ** self._fail_streak),
            self._max_backoff_s,
        )

    @property
    def fail_streak(self) -> int:
        """Consecutive failed pulls since the last success."""
        return self._fail_streak

    @property
    def period_s(self) -> float:
        """The configured base pull period (before failure backoff)."""
        return self._period_s

    def set_period(self, period_s: float) -> None:
        """Re-balance the base pull cadence at runtime.

        The adaptive control plane slows shadowing down while the
        federation is shedding load (background replication should not
        compete with foreground exchanges) and restores the configured
        cadence after recovery.  A pull already armed keeps its old
        delay; the new period takes effect from the next re-arm.
        """
        if period_s <= 0:
            raise ConfigurationError("shadowing period_s must be > 0")
        self._period_s = period_s
        self._max_backoff_s = max(self._max_backoff_s, period_s)

    def start(self) -> "ShadowingAgreement":
        """Begin periodic pulling; returns self."""
        self._running = True
        self._arm()
        return self

    def stop(self) -> None:
        """Stop pulling (a pull already in flight still completes)."""
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def sync_now(self) -> None:
        """Trigger an immediate pull (in addition to the periodic ones)."""
        self._pull(periodic=False)

    def _arm(self) -> None:
        if not self._running:
            return
        self._pending = self._world.engine.schedule(self.current_period_s, self._tick)

    def _tick(self) -> None:
        self._pending = None
        if self._running:
            self._pull(periodic=True)

    def _pull(self, periodic: bool = False) -> None:
        if self.breaker is not None and not self.breaker.allow():
            self.skipped_pulls += 1
            if periodic:
                self._arm()
            return
        self.pulls += 1

        def apply(documents: Any) -> None:
            if isinstance(documents, dict) and "error" in documents:
                self._note_failure(periodic)
                return
            for document in documents:
                change = ChangeRecord(**document)
                if change.csn <= self._high_water:
                    continue
                self._shadow.dit.apply_change(change)
                self._high_water = change.csn
                self.changes_applied += 1
            self._note_success(periodic)

        self._channel.invoke(
            "changes_since",
            {"csn": self._high_water},
            on_reply=apply,
            on_error=lambda error: self._note_failure(periodic),
        )

    def _note_success(self, periodic: bool) -> None:
        self._fail_streak = 0
        self.syncs += 1
        if self.breaker is not None:
            self.breaker.record_success()
        if periodic:
            self._arm()

    def _note_failure(self, periodic: bool = False) -> None:
        self.failed_pulls += 1
        self._fail_streak += 1
        if self.breaker is not None:
            self.breaker.record_failure()
        if self._events.enabled:
            self._events.record(
                self._world.now,
                KIND_SHADOW_PULL_FAILED,
                shadow=self._shadow.name,
                streak=self._fail_streak,
            )
        if periodic:
            self._arm()
