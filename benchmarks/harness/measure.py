"""Measure one workload in one observability mode, in this process.

``run.py`` starts one of these per (workload, mode), one after another,
and reads the JSON object this prints as its last line.  Modes:

* ``off`` — the program as users run it.  Builds the world five times
  (``setup_s`` is their median), then times the measured rounds.
* ``on`` — the same stream with a ``MetricsRegistry``, a full-rate
  ``Tracer`` and an ``EventLog`` attached; the tracer is drained after
  every chunk of 1,000 exchanges, the way an exporter would.
* ``traced`` — the ``off`` program with the harness's span recorder
  wrapped around every layer boundary; gives the per-layer split.

Every call's result is checked against the oracle after each round
(outside the timed region), and deliveries are reconciled: documents the
applications received must equal synchronous deliveries plus queued
deliveries flushed on arrival.

Timings are put at reference speed: the ``hostspeed`` unit is timed
between calls every ``PROBE_EVERY_S`` of work, and the calls between two
probes are scaled by the mean of the two.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: the program under test, from the checkout this file belongs to
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from hostspeed import Reference  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    CHUNK,
    WORKLOADS,
    BenchWorld,
    Script,
    Workload,
    build_world,
    make_population,
    make_script,
)

SETUP_BUILDS = 5
ROUNDS = 10
#: reference units timed before and after each set-up build
SETUP_PROBES = 10
#: work between two probes of the host's speed while timing, in seconds
PROBE_EVERY_S = 0.005
#: calls per latency window; each window's p99 has fifty calls beyond it
WINDOW_CALLS = 5000
#: the traced run exports spans of this many measured exchanges
CAPTURE_EXCHANGES = 2000
#: measured chunks the traced run replays to calibrate span cost in situ
REPLAY_CHUNKS = 3
MODES = ("off", "on", "traced")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def normalise(result: Any) -> Any:
    """The part of a call's result the oracle predicts."""
    if isinstance(result, BaseException):
        return ("raised", type(result).__name__)
    outcome = getattr(result, "outcome", result)
    if hasattr(outcome, "reason_code"):
        return (outcome.delivered, outcome.mode, outcome.reason_code, outcome.translated)
    return result


class Tally:
    """What the checks found across the rounds of one world."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.checked = 0
        self.failed = 0
        self.conservation_errors = 0
        self.flushed = 0
        self.max_depth = 0
        self.size_bytes = 0
        self.sim_latencies: list[float] = []

    def check(self, results: list, expected: list, delivered: int) -> None:
        """Compare one round's results with the oracle; reconcile deliveries.

        *expected* holds, per call, ``None`` (nothing to check), a flushed
        count (an arrival), an outcome tuple (an exchange) or a tuple of
        outcome tuples (a batch); *delivered* is how many documents the
        applications received during the round.
        """
        synchronous = flushed = 0
        update = self.digest.update
        for result, want in zip(results, expected):
            if want is None:
                continue
            if isinstance(want, int):
                got = normalise(result)
                update(repr(got).encode())
                self.checked += 1
                if got != want:
                    self.failed += 1
                    continue
                flushed += got
                self.max_depth = max(self.max_depth, got)
                continue
            if isinstance(want[0], tuple):
                wants, items = want, result
                if not isinstance(items, list) or len(items) != len(wants):
                    items = [result] * len(wants)
            else:
                wants, items = (want,), (result,)
            for item, item_want in zip(items, wants):
                got = normalise(item)
                update(repr(got).encode())
                self.checked += 1
                if got != item_want:
                    self.failed += 1
                    continue
                outcome = getattr(item, "outcome", item)
                synchronous += outcome.mode == "synchronous"
                self.size_bytes += outcome.size_bytes
                if outcome is not item:
                    self.sim_latencies.append(item.latency_s)
        if delivered != synchronous + flushed:
            self.conservation_errors += 1
        self.flushed += flushed


def resolve(world: BenchWorld, chunks: list) -> list[list[tuple]]:
    """Bind each scripted call to this world's callable."""
    calls = world.calls
    return [[(calls[key], args) for key, args in chunk] for chunk in chunks]


def play(chunks: list, results: list, timings: list, reference: Reference,
         after_chunk: Any = None) -> None:
    """Run calls in order, timing each one and probing the host's speed.

    The reference unit is timed before each chunk, after each call that
    ends a segment of at least ``PROBE_EVERY_S``, and after the chunk.
    Appends per chunk ``(segments, probes)``: each segment's wall time
    with its calls' latencies, and the probe times around the segments.
    The last segment's wall includes *after_chunk*.
    """
    clock = time.perf_counter
    keep = results.append
    for chunk in chunks:
        segments: list[tuple[float, list[float]]] = []
        probes = [reference.time()]
        latencies: list[float] = []
        segment_start = clock()
        for fn, args in chunk:
            start = clock()
            try:
                result = fn(*args)
            except Exception as exc:  # counted as a failed operation
                result = exc
            end = clock()
            latencies.append(end - start)
            keep(result)
            if end - segment_start >= PROBE_EVERY_S:
                segments.append((end - segment_start, latencies))
                probes.append(reference.time())
                latencies = []
                segment_start = clock()
        if after_chunk is not None:
            after_chunk()
        segments.append((clock() - segment_start, latencies))
        probes.append(reference.time())
        timings.append((segments, probes))


def at_reference_speed(timings: list, exchanges: list[int]) -> dict[str, float]:
    """Rate and call latency percentiles at reference speed.

    Each segment's wall time and call latencies are scaled by the mean of
    the two probes around it.  The rate is the median chunk's exchanges
    per second; ``per_op_us_ref`` is the whole run's mean.  Consecutive
    chunks are grouped into windows of at least ``WINDOW_CALLS`` calls
    (the last window takes the remainder), and each percentile is the
    median over windows of that window's percentile: a stall that hits a
    few calls moves one window, not the whole run's tail.
    """
    rates: list[float] = []
    windows: list[list[float]] = [[]]
    total = 0.0
    for (segments, probes), count in zip(timings, exchanges):
        if len(windows[-1]) >= WINDOW_CALLS:
            windows.append([])
        chunk = 0.0
        for (wall, calls), before, after in zip(segments, probes, probes[1:]):
            factor = hostspeed.scale((before + after) / 2)
            chunk += wall * factor
            windows[-1].extend(latency * factor for latency in calls)
        total += chunk
        rates.append(count / chunk)
    if len(windows) > 1 and len(windows[-1]) < WINDOW_CALLS:
        windows[-2].extend(windows.pop())
    return {
        "exchanges_per_s": statistics.median(rates),
        "per_op_us_ref": 1e6 * total / sum(exchanges),
        "call_p50_us": 1e6 * statistics.median(percentile(w, 0.50) for w in windows),
        "call_p99_us": 1e6 * statistics.median(percentile(w, 0.99) for w in windows),
        "call_samples": sum(len(w) for w in windows),
        "call_windows": len(windows),
    }


def replay(resolved: list, keyed: list) -> Callable[[], float]:
    """A timed re-run of one chunk's exchanges (outcomes not checked)."""
    calls = [call for call, (key, _) in zip(resolved, keyed) if key in ("exchange", "batch")]

    def run() -> float:
        start = time.perf_counter()
        for fn, args in calls:
            try:
                fn(*args)
            except Exception:  # the replay only times; its outcomes are not checked
                pass
        return time.perf_counter() - start

    return run


def layer_counters(world: BenchWorld) -> dict[str, float]:
    """Cumulative counters read through the layers' public stats."""
    totals: dict[str, float] = {
        "route_hits": 0, "route_misses": 0, "format_hits": 0, "format_misses": 0,
        "evictions": 0, "interchange_hits": 0, "interchange_misses": 0,
        "mediation_hits": 0, "mediation_misses": 0, "relays": 0, "retries": 0,
        "dead_letters": 0,
    }
    for env in world.envs:
        stats = env.resolution.stats()
        for key in ("route_hits", "route_misses", "format_hits", "format_misses", "evictions"):
            totals[key] += stats[key]
        totals["interchange_hits"] += env.interchange.plan_hits
        totals["interchange_misses"] += env.interchange.plan_misses
        if env.mediator is not None:
            stats = env.mediator.stats()
            totals["mediation_hits"] += stats["plan_hits"]
            totals["mediation_misses"] += stats["plans_synthesized"]
    if world.federation is not None:
        for domain in world.federation.domains():
            for gateway in domain.gateways.values():
                stats = gateway.stats()
                for key in ("relays", "retries", "dead_letters"):
                    totals[key] += stats[key]
    totals["engine_events"] = world.world.engine.processed_count
    return totals


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def count_metrics(before: dict, after: dict, tally: Tally, script: Script,
                  ops: int) -> dict[str, float]:
    """Per-layer counts and ratios over the measured phase (deterministic)."""
    d = {key: after[key] - before[key] for key in after}
    latencies = tally.sim_latencies
    return {
        "environment.queue_flushed_per_op": tally.flushed / ops,
        "environment.queue_max_depth": tally.max_depth,
        "environment.resolution.route_hit_ratio":
            ratio(d["route_hits"], d["route_hits"] + d["route_misses"]),
        "environment.resolution.format_hit_ratio":
            ratio(d["format_hits"], d["format_hits"] + d["format_misses"]),
        "environment.resolution.evictions_per_write": ratio(d["evictions"], script.writes),
        "information.interchange.plan_hit_ratio":
            ratio(d["interchange_hits"], d["interchange_hits"] + d["interchange_misses"]),
        "mediation.plan_hit_ratio":
            ratio(d["mediation_hits"], d["mediation_hits"] + d["mediation_misses"]),
        "util.serialization.bytes_per_op": tally.size_bytes / ops,
        "federation.sim_latency_p99_ms":
            1e3 * percentile(latencies, 0.99) if latencies else 0.0,
        "federation.gateway.relays_per_cross_op": ratio(d["relays"], script.cross_domain),
        "federation.gateway.retries": d["retries"],
        "federation.gateway.dead_letters": d["dead_letters"],
        "sim.engine.events_per_op": d["engine_events"] / ops,
    }


def build(workload: Workload, population: Any, seed: int, script: Script,
          mode: str, recorder: SpanRecorder | None) -> tuple[BenchWorld, float, list, Tally]:
    """Build one world and run the warm-up; return it with its set-up time."""
    from repro.util.ids import reset_ids

    reset_ids()
    start = time.perf_counter()
    world = build_world(workload, population, seed, observed=mode == "on", recorder=recorder)
    chunks = resolve(world, script.chunks)
    warmup = chunks[: script.warmup_chunks]
    delivered = world.delivered()
    results: list = []
    for chunk in warmup:
        for fn, args in chunk:
            try:
                results.append(fn(*args))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
    elapsed = time.perf_counter() - start
    tally = Tally()
    expected = [want for chunk in script.expected[: script.warmup_chunks] for want in chunk]
    tally.check(results, expected, world.delivered() - delivered)
    return world, elapsed, chunks[script.warmup_chunks:], tally


def measure(workload: Workload, seed: int, exchanges: int, mode: str,
            out: Path | None) -> dict[str, Any]:
    population = make_population(workload, seed)
    script = make_script(workload, population, seed, exchanges)
    recorder = SpanRecorder() if mode == "traced" else None
    reference = Reference()
    setups = []
    for _ in range(SETUP_BUILDS if mode == "off" else 1):
        world = measured = tally = None  # the last build is garbage now
        gc.collect()
        probes = [reference.time() for _ in range(SETUP_PROBES)]
        world, elapsed, measured, tally = build(
            workload, population, seed, script, mode, recorder
        )
        probes += [reference.time() for _ in range(SETUP_PROBES)]
        setups.append(elapsed * hostspeed.scale(statistics.mean(probes)))

    expected = script.expected[script.warmup_chunks:]
    exchanges_per_chunk = script.exchanges[script.warmup_chunks:]
    ops = sum(exchanges_per_chunk)
    rounds = min(ROUNDS, len(measured))
    bounds = [len(measured) * k // rounds for k in range(rounds + 1)]
    before = layer_counters(world)
    after_chunk = None
    spans_drained = 0
    if mode == "on":
        tracer = world.tracer

        def after_chunk() -> None:
            nonlocal spans_drained
            spans_drained += len(tracer.drain())

        tracer.drain()
    elif mode == "traced":
        null_inner, null_outer = SpanRecorder.calibrate_null()
        recorder.reset()
        captured = recorder.capture = []
        chunks_to_capture = CAPTURE_EXCHANGES // CHUNK

        def after_chunk() -> None:
            nonlocal chunks_to_capture
            chunks_to_capture -= 1
            if not chunks_to_capture:
                recorder.capture = None

    timings: list = []
    for k in range(rounds):
        lo, hi = bounds[k], bounds[k + 1]
        results: list = []
        delivered = world.delivered()
        # Every round starts from the same collector state: survivors of
        # the build and earlier rounds are frozen, so a full collection
        # of the growing heap cannot land in some rounds and not others.
        # The collector stays on while timing.
        gc.collect()
        gc.freeze()
        play(measured[lo:hi], results, timings, reference, after_chunk)
        tally.check(results, [w for chunk in expected[lo:hi] for w in chunk],
                    world.delivered() - delivered)
    after = layer_counters(world)
    wall = sum(segment[0] for segments, _ in timings for segment in segments)
    probes = [probe for _, chunk_probes in timings for probe in chunk_probes]

    report: dict[str, Any] = {
        "workload": workload.name,
        "mode": mode,
        "seed": seed,
        "ops": ops,
        "checked": tally.checked,
        "failed": tally.failed,
        "conservation_errors": tally.conservation_errors,
        "digest": tally.digest.hexdigest(),
        "rounds": rounds,
        **at_reference_speed(timings, exchanges_per_chunk),
        "per_op_us": 1e6 * wall / ops,
        "host_speed": hostspeed.scale(statistics.median(probes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": count_metrics(before, after, tally, script, ops),
    }
    if mode == "on":
        report["spans_per_op"] = spans_drained / ops
        snapshot = world.metrics.snapshot()
        report["series"] = sum(len(snapshot[kind]) for kind in ("counters", "gauges", "histograms"))
    if mode == "traced":
        recorder.capture = None
        counts = recorder.snapshot()
        # Calibrate on the checked world only after every check: replaying
        # exchanges changes its state.
        scripted = script.chunks[script.warmup_chunks:]
        outer = recorder.calibrate_in_situ(
            [replay(*pair) for pair in zip(measured[:REPLAY_CHUNKS], scripted)]
        )
        inner = null_inner * outer / null_outer
        # Span times are this process's wall time: put them at reference
        # speed with the run's mean factor.
        speed = report["per_op_us_ref"] / report["per_op_us"]
        report["layers"] = {
            layer: {**row, "self_us_per_op": speed * row["self_us_per_op"],
                    "total_us_per_op": speed * row["total_us_per_op"]}
            for layer, row in spans.table(counts, recorder.layers, ops, inner, outer).items()
        }
        report["unattributed_us_per_op"] = (
            speed * 1e6 * spans.unattributed(counts, wall, inner, outer) / ops
        )
        report["span_cost_us"] = {"inner": 1e6 * inner, "outer": 1e6 * outer,
                                  "null_outer": 1e6 * null_outer}
        if out is not None:
            path = out / f"BENCH_{workload.name}.trace.json"
            path.write_text(json.dumps(spans.chrome_trace(captured)))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--exchanges", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    report = measure(WORKLOADS[args.workload], args.seed, args.exchanges, args.mode, args.out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
