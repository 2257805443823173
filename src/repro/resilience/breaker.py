"""Circuit breakers: fail fast across a boundary that is known to be dead.

RM-ODP's engineering language puts explicit *channel objects* on every
interface binding that crosses a node boundary, exactly so that failure
handling can live in the channel instead of in every client.  The
federation's gateways and directory shadowing agreements are such
channels; a :class:`CircuitBreaker` is the failure-transparency policy
wrapped around them.

The breaker is a three-state machine driven entirely by the simulated
clock:

* **closed** — calls flow; consecutive failures are counted and
  ``failure_threshold`` of them open the breaker,
* **open** — calls are refused immediately (the caller fails fast
  instead of burning its full retry x backoff budget) until
  ``cooldown_s`` simulated seconds have passed,
* **half-open** — after the cooldown one trial call is let through;
  success recloses the breaker, failure reopens it for another
  cooldown.

``record_success`` recloses the breaker from *any* state: an external
health probe that reaches the other side is just as good evidence as a
trial call.  A metrics registry reads the ``opened``/``reclosed``/
``fast_failures`` tallies; ``trials``/``reopened`` counters are pushed.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.obs.events import (
    KIND_BREAKER_CLOSE,
    KIND_BREAKER_HALF_OPEN,
    KIND_BREAKER_OPEN,
    NULL_EVENTS,
    EventLog,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.errors import ConfigurationError

#: breaker states
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class _Clock(Protocol):
    @property
    def now(self) -> float: ...  # pragma: no cover - typing only


class CircuitBreaker:
    """Trips after consecutive failures; recloses after a quiet cooldown."""

    def __init__(
        self,
        clock: _Clock,
        name: str = "breaker",
        failure_threshold: int = 4,
        cooldown_s: float = 30.0,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("breaker needs failure_threshold >= 1")
        if cooldown_s <= 0:
            raise ConfigurationError("breaker cooldown_s must be > 0")
        self._clock = clock
        self.name = name
        self._threshold = failure_threshold
        self._cooldown_s = cooldown_s
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._state = STATE_CLOSED
        self._streak = 0
        self._opened_at = 0.0
        #: a half-open trial call is in flight; further calls are refused
        self._trial_pending = False
        self.opened = 0
        self.reclosed = 0
        self.fast_failures = 0
        self._obs: MetricsRegistry = (metrics or NULL_METRICS).read(self, {
            "resilience.breaker.opened": lambda: self.opened,
            "resilience.breaker.reclosed": lambda: self.reclosed,
            "resilience.breaker.fast_failures": lambda: self.fast_failures,
        })

    # -- state -------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, cooldown expiry included (read-only, no side
        effects): an open breaker whose cooldown has elapsed reads as
        half-open."""
        if self._state == STATE_OPEN and self._cooldown_elapsed():
            return STATE_HALF_OPEN
        return self._state

    @property
    def failure_streak(self) -> int:
        """Consecutive failures since the last success."""
        return self._streak

    def _cooldown_elapsed(self) -> bool:
        return self._clock.now >= self._opened_at + self._cooldown_s

    def ready(self) -> bool:
        """Whether :meth:`allow` would currently admit a call.

        Side-effect free — routing decisions (pick another path?) use
        this; the path actually taken calls :meth:`allow`.
        """
        state = self.state
        if state == STATE_CLOSED:
            return True
        if state == STATE_HALF_OPEN:
            return not self._trial_pending
        return False

    # -- the caller-facing gate --------------------------------------------
    def allow(self) -> bool:
        """Admit or refuse one call.

        Closed admits; open refuses (counted as a fast failure);
        half-open admits exactly one trial at a time, whose
        ``record_success``/``record_failure`` decides the next state.
        """
        state = self.state
        if state == STATE_CLOSED:
            return True
        if state == STATE_HALF_OPEN and not self._trial_pending:
            self._state = STATE_HALF_OPEN
            self._trial_pending = True
            if self._obs.enabled:
                self._obs.inc("resilience.breaker.trials")
            if self._events.enabled:
                self._events.record(
                    self._clock.now, KIND_BREAKER_HALF_OPEN, name=self.name
                )
            return True
        self.fast_failures += 1
        return False

    def record_success(self) -> None:
        """Note a successful call or probe: reclose from any state."""
        self._streak = 0
        self._trial_pending = False
        if self._state != STATE_CLOSED:
            self._state = STATE_CLOSED
            self.reclosed += 1
            if self._events.enabled:
                self._events.record(
                    self._clock.now, KIND_BREAKER_CLOSE, name=self.name
                )

    def record_failure(self) -> None:
        """Note a failed call or probe; may trip the breaker."""
        self._streak += 1
        if self._state == STATE_HALF_OPEN or (
            self._state == STATE_OPEN and self._cooldown_elapsed()
        ):
            # the trial (or a call racing it) failed: restart the cooldown
            self._trial_pending = False
            self._state = STATE_OPEN
            self._opened_at = self._clock.now
            if self._obs.enabled:
                self._obs.inc("resilience.breaker.reopened")
            if self._events.enabled:
                self._events.record(
                    self._clock.now, KIND_BREAKER_OPEN, name=self.name, reopened=True
                )
            return
        if self._state == STATE_CLOSED and self._streak >= self._threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = self._clock.now
        self.opened += 1
        if self._events.enabled:
            self._events.record(
                self._clock.now,
                KIND_BREAKER_OPEN,
                name=self.name,
                streak=self._streak,
            )

    # -- operator controls -------------------------------------------------
    def force_open(self) -> None:
        """Trip the breaker now (operator override / tests)."""
        self._trial_pending = False
        if self._state != STATE_OPEN:
            self._trip()
        else:
            self._opened_at = self._clock.now

    def reset(self) -> None:
        """Reclose and forget the failure streak (operator override)."""
        self.record_success()

    def stats(self) -> dict[str, Any]:
        """Counters and current state, for ``describe()`` snapshots."""
        return {
            "state": self.state,
            "failure_streak": self._streak,
            "opened": self.opened,
            "reclosed": self.reclosed,
            "fast_failures": self.fast_failures,
        }
