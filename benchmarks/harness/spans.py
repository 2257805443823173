"""The traced run's span recorder, owned by the harness.

It deliberately does not reuse ``repro.obs``: the instrument that
measures the program must not change when the program's own telemetry is
refactored.  Spans are recorded from the benchmark's side of each layer
boundary by swapping a layer's public method on the instance (or module
global) for a timing wrapper; nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of the spans it
directly caused.  Each wrapper costs wall time of its own, part of it
inside the window it times (*inner*) and the rest in its caller; *outer*
is the whole cost.  Both come from null spans: :meth:`calibrate_null`
times them in a tight loop, which gives the split between the two parts,
and :meth:`calibrate_in_situ` times them nested inside every recorded
span while the workload replays, which gives the cost the workload
actually pays (cache pressure roughly doubles it).  Calibrated self
times plus the unattributed remainder then add up to the traced wall
time minus the wrapper cost, which should match the untraced run.
"""

from __future__ import annotations

import statistics
import time
from types import ModuleType
from typing import Any, Callable

#: the layers the traced run splits wall time across, named by module
LAYERS = (
    "environment",
    "environment.resolution",
    "sharding",
    "information.interchange",
    "mediation",
    "util.serialization",
    "environment.transparency",
    "apps",
    "util.events",
    "communication",
    "federation",
    "federation.gateway",
    "sim.transport",
    "sim.network",
    "sim.engine",
)

#: (name, layer, start, duration, depth) of one captured span
Event = tuple[str, str, float, float, int]


class SpanRecorder:
    """Times wrapped calls per layer; optionally keeps raw spans for export."""

    def __init__(self, layers: tuple[str, ...] = LAYERS) -> None:
        self.layers = layers
        self._index = {name: i for i, name in enumerate(layers)}
        self._stack: list[list] = []
        #: (cell, original) per wrapped call site; the wrapper calls cell[0]
        self._sites: list[tuple[list, Callable[..., Any]]] = []
        self._serialization_wrapped = False
        #: spans are appended here while it is a list
        self.capture: list[Event] | None = None
        n = len(layers)
        self.calls = [0] * n
        self.raw_self = [0.0] * n
        self.children = [0] * n
        #: outermost-span durations per layer (nested same-layer calls once)
        self.total = [0.0] * n
        self._active = [0] * n
        self.root_time = 0.0
        self.roots = 0

    def reset(self) -> None:
        """Zero every counter in place (the wrappers hold these lists)."""
        for counters in (self.calls, self.raw_self, self.children, self.total):
            counters[:] = [0] * len(counters)
        self.root_time = 0.0
        self.roots = 0

    def snapshot(self) -> dict[str, Any]:
        """A copy of the counters, for :func:`table` and :func:`unattributed`."""
        return {
            "calls": list(self.calls), "raw_self": list(self.raw_self),
            "children": list(self.children), "total": list(self.total),
            "root_time": self.root_time, "roots": self.roots,
        }

    # -- wrapping ------------------------------------------------------------
    def _timed(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        index = self._index[layer]
        stack = self._stack
        calls, raw_self, children = self.calls, self.raw_self, self.children
        total, active = self.total, self._active
        clock = time.perf_counter
        recorder = self
        cell = [fn]
        self._sites.append((cell, fn))

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0]
            stack.append(frame)
            active[index] += 1
            start = clock()
            try:
                return cell[0](*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[index] -= 1
                calls[index] += 1
                raw_self[index] += elapsed - frame[0]
                children[index] += frame[1]
                if not active[index]:
                    total[index] += elapsed
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                else:
                    recorder.root_time += elapsed
                    recorder.roots += 1
                if recorder.capture is not None:
                    recorder.capture.append((name, layer, start, elapsed, len(stack)))

        return timed

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a timed wrapper for the process's life."""
        name = attr if isinstance(owner, ModuleType) else f"{type(owner).__name__}.{attr}"
        setattr(owner, attr, self._timed(getattr(owner, attr), layer, name))

    # -- the layers of this program -------------------------------------------
    def instrument_environment(self, env: Any) -> None:
        """Wrap one environment's layer boundaries (before it is populated)."""
        import repro.environment.environment as environment_module

        if not self._serialization_wrapped:
            # a module global, shared by every environment in the process
            self.wrap(environment_module, "document_size", "util.serialization")
            self._serialization_wrapped = True
        for attr in ("exchange", "exchange_many", "person_arrives", "person_leaves"):
            self.wrap(env, attr, "environment")
        for attr in ("route", "formats"):
            self.wrap(env.resolution, attr, "environment.resolution")
        kb = env.knowledge_base
        for attr in ("organisation_of", "add_person", "move_person", "remove_person"):
            self.wrap(kb, attr, "sharding")
        for attr in ("declare", "revoke"):
            self.wrap(kb.policies, attr, "sharding")
        self.wrap(env.interchange, "translate", "information.interchange")
        if env.mediator is not None:
            self.wrap(env.mediator, "translate", "mediation")
        self.wrap(env.views, "render", "environment.transparency")
        self.wrap(env.bus, "publish", "util.events")
        self.wrap(env.communication_log, "record", "communication")

    def instrument_federation(self, federation: Any) -> None:
        """Wrap the federation, every domain's environment and the sim below."""
        for attr in ("federated_exchange", "federated_exchange_many", "home_of"):
            self.wrap(federation, attr, "federation")
        for domain in federation.domains():
            self.instrument_environment(domain.env)
            for gateway in domain.gateways.values():
                self.wrap(gateway, "relay", "federation.gateway")
            self.wrap(domain.gateway_rpc, "request", "sim.transport")
        self.wrap(federation.world.network, "send", "sim.network")
        self.wrap(federation.world.engine, "step", "sim.engine")

    def instrument_app(self, app: Any) -> None:
        """Wrap an application's delivery callback (before it is attached)."""
        self.wrap(app, "deliver", "apps")

    # -- calibration ------------------------------------------------------------
    @staticmethod
    def calibrate_null(calls: int = 20_000, repeats: int = 7) -> tuple[float, float]:
        """(inner, outer) cost in seconds of a null span in a tight loop.

        The spans open under a parent span, the way real spans nest; the
        values are medians over *repeats* runs of *calls* spans.
        """
        probe = SpanRecorder(("null",))

        def null() -> None:
            return None

        timed = probe._timed(null, "null", "null")
        loop = range(calls)
        clock = time.perf_counter
        inner, outer = [], []
        for _ in range(repeats):
            start = clock()
            for _ in loop:
                null()
            direct = clock() - start
            probe.reset()
            probe._stack.append([0.0, 0])
            start = clock()
            for _ in loop:
                timed()
            wrapped = clock() - start
            probe._stack.pop()
            outer.append((wrapped - direct) / calls)
            inner.append(max(0.0, (probe.raw_self[0] - direct) / calls))
        return statistics.median(inner), statistics.median(outer)

    def calibrate_in_situ(self, replays: list[Callable[[], float]], repeats: int = 4) -> float:
        """The whole cost in seconds of one span as the workload pays it.

        Each replay re-runs a slice of the workload and returns its wall
        time.  Every slice runs twice back to back, once as recorded and
        once with a null span nested inside every recorded span, in
        alternating order; the answer is the median over all pairs of the
        time difference per null span.  Pairing cancels the machine's
        slow speed drift.
        """
        probe = SpanRecorder(("null",))
        shadows = [(cell, probe._timed(fn, "null", "null"), fn) for cell, fn in self._sites]

        def shadowed(replay: Callable[[], float]) -> tuple[float, int]:
            for cell, shadow, _ in shadows:
                cell[0] = shadow
            before = probe.calls[0]
            try:
                return replay(), probe.calls[0] - before
            finally:
                for cell, _, fn in shadows:
                    cell[0] = fn

        costs = []
        for repeat in range(repeats):
            for replay in replays:
                if repeat % 2:
                    (slow, nulls), fast = shadowed(replay), replay()
                else:
                    fast, (slow, nulls) = replay(), shadowed(replay)
                costs.append((slow - fast) / nulls)
        return max(0.0, statistics.median(costs))


def table(counts: dict[str, Any], layers: tuple[str, ...], ops: int,
          inner: float, outer: float) -> dict[str, dict[str, float]]:
    """Per layer: calls, calibrated self time and raw inclusive time, per op."""
    rows = {}
    for i, layer in enumerate(layers):
        self_s = (counts["raw_self"][i] - counts["calls"][i] * inner
                  - counts["children"][i] * (outer - inner))
        rows[layer] = {
            "calls_per_op": counts["calls"][i] / ops,
            "self_us_per_op": 1e6 * self_s / ops,
            "total_us_per_op": 1e6 * counts["total"][i] / ops,
        }
    return rows


def unattributed(counts: dict[str, Any], wall: float, inner: float, outer: float) -> float:
    """Traced wall time no span covers, the wrapper cost of root spans removed."""
    return wall - counts["root_time"] - counts["roots"] * (outer - inner)


def chrome_trace(events: list[Event]) -> dict[str, Any]:
    """Captured spans in Chrome trace-viewer JSON form (µs from the first)."""
    origin = min((start for _, _, start, _, _ in events), default=0.0)
    return {
        "displayTimeUnit": "ns",
        "traceEvents": [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": 1e6 * (start - origin), "dur": 1e6 * duration,
             "args": {"depth": depth}}
            for name, layer, start, duration, depth in events
        ],
    }
