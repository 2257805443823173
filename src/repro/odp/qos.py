"""Quality-of-service annotations and monitoring for bindings.

The paper's requirements (section 4) span real-time and asynchronous
communication; QoS is how the ODP layer makes that difference explicit.
A :class:`QoSSpec` states what a binding needs; a :class:`QoSMonitor`
watches observed invocation latencies and reports violations, which the
communication model uses to decide when a synchronous channel must degrade
to asynchronous delivery (time transparency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class QoSSpec:
    """Declared quality requirements of a binding.

    max_latency_s
        Upper bound an invocation round trip may take.
    min_reliability
        Lower bound on the fraction of invocations that must succeed.
    ordered
        Whether delivery order must match send order.
    """

    max_latency_s: float = 1.0
    min_reliability: float = 0.99
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.max_latency_s <= 0:
            raise ConfigurationError("max_latency_s must be > 0")
        if not 0.0 <= self.min_reliability <= 1.0:
            raise ConfigurationError("min_reliability must be in [0, 1]")

    def suits_synchronous_use(self) -> bool:
        """Heuristic: sub-second latency bounds indicate real-time use."""
        return self.max_latency_s <= 1.0


#: QoS preset for real-time (synchronous, WYSIWIS) cooperation
REALTIME_QOS = QoSSpec(max_latency_s=0.25, min_reliability=0.95, ordered=True)

#: QoS preset for store-and-forward (asynchronous) cooperation
MESSAGING_QOS = QoSSpec(max_latency_s=3600.0, min_reliability=0.999, ordered=False)


class QoSMonitor:
    """Tracks one binding's observed behaviour against its spec."""

    def __init__(self, spec: QoSSpec, name: str = "") -> None:
        self.spec = spec
        self.name = name
        self._attempts = 0
        self._successes = 0
        self._latency_violations = 0

    @property
    def attempts(self) -> int:
        """Invocations observed so far."""
        return self._attempts

    @property
    def latency_violations(self) -> int:
        """Successful invocations that exceeded the latency bound."""
        return self._latency_violations

    def observe_success(self, latency_s: float) -> bool:
        """Record a completed invocation; return True when within spec."""
        self._attempts += 1
        self._successes += 1
        if latency_s > self.spec.max_latency_s:
            self._latency_violations += 1
            return False
        return True

    def observe_failure(self) -> None:
        """Record a failed invocation."""
        self._attempts += 1

    def reliability(self) -> float:
        """Observed success fraction (1.0 before any attempts)."""
        if self._attempts == 0:
            return 1.0
        return self._successes / self._attempts

    def in_conformance(self) -> bool:
        """True while both reliability and latency bounds are being met."""
        if self.reliability() < self.spec.min_reliability:
            return False
        return self._latency_violations == 0

    def violations(self) -> list[str]:
        """Human-readable list of current violations (empty when clean)."""
        found = []
        if self.reliability() < self.spec.min_reliability:
            found.append(
                f"reliability {self.reliability():.3f} < required {self.spec.min_reliability:.3f}"
            )
        if self._latency_violations:
            found.append(f"{self._latency_violations} invocations exceeded {self.spec.max_latency_s}s")
        return found
