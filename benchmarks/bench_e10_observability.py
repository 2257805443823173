"""E14 — observability: connected traces under chaos, at bounded cost.

The management/monitoring concern behind ISSUE 5: distributed tracing is
only trustworthy if (a) a federated exchange yields **one** connected
trace even when breakers reroute it through an intermediate domain, and
(b) leaving the full observability stack on — tracer, event log, SLO
engine — does not distort the system it watches.

This bench replays the E13 chaos scenario (seed 11, three domains, a
flapping d0-d1 WAN link wider than the gateway retry budget, breakers +
health checks + failover) twice:

* **obs_off** — the null tracer/event log: the production default,
* **obs_on** — a real :class:`~repro.obs.tracing.Tracer`, a bounded
  :class:`~repro.obs.events.EventLog`, and an
  :class:`~repro.obs.slo.SLOEngine` sampling delivered-ratio and
  relay-latency objectives every simulated second.

Reported: per-variant wall time (simulated results are identical by
construction — same seed, and tracing never touches the sim clock),
trace connectivity from the :class:`~repro.obs.analyze.TraceAnalyzer`,
critical-path coverage for the failover traces, SLO verdicts, and event
counts.  Full mode asserts the acceptance criteria: every trace is
connected, failover critical paths cover >= 95% of the end-to-end
duration, the Chrome export parses back, and the obs-on wall overhead
stays under 15%.  Results land in ``BENCH_obs.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e10_observability.py [--quick]
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

from bench_common import synthetic_converter
from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.obs import (
    EventLog,
    MetricsRegistry,
    SLOEngine,
    TraceAnalyzer,
    Tracer,
    chrome_trace_json,
)
from repro.resilience import ChaosRunner
from repro.sim.world import World

#: E13's seed: both variants replay the identical chaos schedule
SEED = 11

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}

#: wall overhead budget for the full observability stack
OVERHEAD_BUDGET = 0.15


def build_federation(traced: bool) -> tuple[Federation, Tracer | None, EventLog | None]:
    """The E13 resilient federation, optionally with full observability."""
    world = World(seed=SEED)
    tracer = Tracer() if traced else None
    events = EventLog(capacity=4096) if traced else None
    assignment = {f"d{index}": [f"d{index}-p0", f"d{index}-p1"] for index in range(3)}
    federation = Federation.partition(
        world,
        assignment,
        metrics=MetricsRegistry(),
        resilience=True,
        tracer=tracer,
        events=events,
    )
    for app_index in (0, 1):
        federation.register_application(
            AppDescriptor(
                name=f"app{app_index}",
                quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                converter=synthetic_converter(app_index),
            ),
            lambda person, document, info: None,
        )
    federation.start_health_checks(period_s=1.0, timeout_s=0.5)
    return federation, tracer, events


def schedule_chaos(federation: Federation, down_s: float) -> ChaosRunner:
    """E13's schedule: one d0-d1 outage wider than the retry budget."""
    chaos = ChaosRunner(federation.world, name="bench-e14")
    chaos.flap_link(
        federation.domain("d0").node,
        federation.domain("d1").node,
        start=5.0,
        down_s=down_s,
        up_s=5.0,
        flaps=1,
    )
    return chaos


def attach_slo(federation: Federation, events: EventLog) -> SLOEngine:
    """Delivered-ratio and relay-latency objectives over 30 s windows.

    Sampling every 2.5 simulated seconds gives 12 samples per window —
    plenty of resolution, at a quarter of the per-second sampling cost.
    """
    slo = SLOEngine(
        federation.world.engine, federation._metrics, events=events,
        sample_period_s=2.5,
    )
    slo.add_ratio(
        "delivered",
        "env.federation.delivered",
        "env.federation.exchanges",
        target=0.95,
        window_s=30.0,
    )
    slo.add_latency(
        "relay-p99",
        "env.federation.relay_latency_s",
        threshold_s=5.0,
        quantile=0.99,
        window_s=30.0,
    )
    return slo.start()


def run_variant(traced: bool, iterations: int, down_s: float) -> dict:
    """One replay of the chaos scenario; returns results + raw handles."""
    federation, tracer, events = build_federation(traced)
    schedule_chaos(federation, down_s=down_s)
    slo = attach_slo(federation, events) if traced else None
    world = federation.world
    gc.collect()  # start both variants from the same collector state
    started = time.perf_counter()
    outcomes = []
    for index in range(iterations):
        outcomes.append(
            federation.federated_exchange(ExchangeRequest(
                f"d0-p{index % 2}", f"d1-p{index % 2}", "app0", "app1", DOCUMENT
            ))
        )
        world.run_for(0.8)
    wall_s = time.perf_counter() - started
    delivered = sum(1 for outcome in outcomes if outcome.delivered)
    failovers = sum(
        1
        for outcome in outcomes
        if any(hop.role == "relay" for hop in outcome.hops)
    )
    result = {
        "variant": "obs_on" if traced else "obs_off",
        "iterations": iterations,
        "wall_s": round(wall_s, 4),
        "delivered_ratio": round(delivered / iterations, 4),
        "failovers": failovers,
        "sim_end_s": round(world.now, 4),
    }
    return {
        "result": result,
        "outcomes": outcomes,
        "tracer": tracer,
        "events": events,
        "slo": slo,
    }


def analyse(run: dict) -> dict:
    """Trace connectivity, coverage, events, and SLO verdicts (obs_on)."""
    tracer: Tracer = run["tracer"]
    events: EventLog = run["events"]
    analyzer = TraceAnalyzer.from_tracers(tracer)
    summary = analyzer.summary()
    failover_traces = [
        trace_id
        for trace_id in analyzer.trace_ids()
        if any(
            record["name"] == "federation.forward"
            for record in analyzer.spans(trace_id)
        )
    ]
    coverages = [
        round(analyzer.critical_path_coverage(trace_id), 4)
        for trace_id in failover_traces
        if analyzer.is_connected(trace_id)
    ]
    # outcome trace ids must map 1:1 onto recorded root spans
    roots = {
        span.trace_id
        for span in tracer.finished()
        if span.name == "federation.exchange"
    }
    outcome_ids = {
        outcome.outcome.trace_id
        for outcome in run["outcomes"]
        if outcome.outcome is not None and outcome.outcome.trace_id
    }
    return {
        "traces": summary["traces"],
        "spans": summary["spans"],
        "connected": summary["connected"],
        "disconnected": summary["disconnected"],
        "failover_traces": len(failover_traces),
        "failover_coverage_min": min(coverages) if coverages else None,
        "outcome_ids_without_root": sorted(outcome_ids - roots),
        "top_slowest": analyzer.top_slowest(3),
        "event_kinds": events.kinds(),
        "events_dropped": events.dropped,
        "slo": run["slo"].evaluate(),
    }


def run_bench(iterations: int, quick: bool, down_s: float, repeats: int) -> dict:
    """Both variants; overhead is the median of per-pair comparisons.

    Wall noise on a shared machine has two shapes, and the measurement
    cancels both: *drift* (the box speeds up or slows down over the
    bench's lifetime) is cancelled by computing overhead within each
    back-to-back pair rather than between pooled medians, and *order
    bias* (whichever variant runs second inherits warmed caches) is
    cancelled by alternating which variant leads each pair.  A discarded
    warm-up pair keeps first-run import/allocator cost out of the
    statistics, and the median of the per-pair overheads shrugs off the
    occasional descheduled outlier.
    """
    baseline = traced = None
    off_walls, on_walls, overheads = [], [], []
    for repeat in range(-1, repeats):  # repeat -1 is the discarded warm-up
        pair = {}
        order = (False, True) if repeat % 2 == 0 else (True, False)
        for is_traced in order:
            pair[is_traced] = run_variant(
                traced=is_traced, iterations=iterations, down_s=down_s
            )
        if repeat < 0:
            continue
        baseline, traced = pair[False], pair[True]
        off = baseline["result"]["wall_s"]
        on = traced["result"]["wall_s"]
        off_walls.append(off)
        on_walls.append(on)
        overheads.append((on - off) / max(off, 1e-9))
    baseline["result"]["wall_s"] = round(statistics.median(off_walls), 4)
    traced["result"]["wall_s"] = round(statistics.median(on_walls), 4)
    overhead = statistics.median(overheads)
    # the Chrome export must parse back before anyone feeds it a viewer
    chrome = json.loads(chrome_trace_json(traced["tracer"].finished()))
    return {
        "bench": "observability",
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "outage_s": down_s,
        "variants": [baseline["result"], traced["result"]],
        "traces": analyse(traced),
        "chrome_events": len(chrome["traceEvents"]),
        "overhead": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_obs.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_obs.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print(f"\nE14: observability under seeded chaos ({blob['mode']} mode, "
          f"seed {blob['seed']})")
    for variant in blob["variants"]:
        print(f"  {variant['variant']:>8}: wall {variant['wall_s'] * 1000:8.1f} ms  "
              f"delivered {variant['delivered_ratio'] * 100:5.1f}%  "
              f"failovers {variant['failovers']}")
    traces = blob["traces"]
    print(f"  traces: {traces['connected']}/{traces['traces']} connected, "
          f"{traces['spans']} spans, {traces['failover_traces']} failover "
          f"(min coverage {traces['failover_coverage_min']})")
    print(f"  events: {traces['event_kinds']}")
    slo_line = ", ".join(
        f"{name} {'met' if status['met'] else 'MISSED'} "
        f"({status['value']})"
        for name, status in traces["slo"].items()
    )
    print(f"  slo: {slo_line}")
    print(f"  obs-on wall overhead: {blob['overhead'] * 100:+.1f}% "
          f"(budget {blob['overhead_budget'] * 100:.0f}%)")


def check(blob: dict, strict: bool) -> None:
    """The acceptance criteria; overhead is only asserted in full mode."""
    traces = blob["traces"]
    assert traces["traces"] > 0, "no traces recorded"
    assert traces["disconnected"] == 0, (
        f"{traces['disconnected']} traces lost their root across a relay"
    )
    assert traces["failover_traces"] > 0, "failover path never exercised"
    assert traces["failover_coverage_min"] >= 0.95, (
        f"critical path explains only {traces['failover_coverage_min']} "
        "of the end-to-end duration"
    )
    assert traces["outcome_ids_without_root"] == [], (
        "outcomes returned trace ids with no recorded origin span: "
        f"{traces['outcome_ids_without_root']}"
    )
    assert blob["chrome_events"] > traces["spans"], (
        "chrome export must carry every span plus process metadata"
    )
    if strict:
        assert blob["overhead"] <= blob["overhead_budget"], (
            f"full observability costs {blob['overhead'] * 100:.1f}% wall, "
            f"over the {blob['overhead_budget'] * 100:.0f}% budget"
        )


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    # full mode favours many modest pairs over few long ones: scheduler
    # stalls hit whole pairs, so the median needs pair *count*, not pair
    # length, to shrug them off
    iterations = 16 if quick else 256
    blob = run_bench(
        iterations,
        quick,
        down_s=12.0 if quick else 32.0,
        repeats=1 if quick else 11,
    )
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    check(blob, strict=not quick)
    if not quick:
        print("  PASS: connected traces, >=95% coverage, overhead in budget")
    return 0


def test_observability_bench_smoke():
    """Pytest entry point: the variant machinery on a tiny workload."""
    blob = run_bench(10, quick=True, down_s=12.0, repeats=1)
    check(blob, strict=False)
    assert [variant["variant"] for variant in blob["variants"]] == [
        "obs_off", "obs_on",
    ]
    # same seed, same sim: observability must not change the outcome
    assert (
        blob["variants"][0]["delivered_ratio"]
        == blob["variants"][1]["delivered_ratio"]
    )
    assert blob["variants"][0]["sim_end_s"] == blob["variants"][1]["sim_end_s"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
