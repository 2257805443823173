"""E14 — observability: connected traces under chaos, without drift.

The management/monitoring concern: distributed tracing is only
trustworthy if (a) a federated exchange yields **one** connected trace
even when breakers reroute it through an intermediate domain, and (b)
leaving the full observability stack on — tracer, event log, SLO engine
— does not change the system it watches.

This bench replays the E13 chaos scenario (seed 11, three domains, a
flapping d0-d1 WAN link wider than the gateway retry budget, breakers +
health checks + failover) twice:

* **obs_off** — the null tracer/event log: the production default,
* **obs_on** — a real :class:`~repro.obs.tracing.Tracer`, a bounded
  :class:`~repro.obs.events.EventLog`, and an
  :class:`~repro.obs.slo.SLOEngine` sampling delivered-ratio and
  relay-latency objectives every 2.5 simulated seconds.

Reported: trace connectivity from the
:class:`~repro.obs.analyze.TraceAnalyzer`, critical-path coverage for
the failover traces, SLO verdicts, and event counts.  Asserted: every
trace is connected, failover critical paths cover >= 95% of the
end-to-end duration, every outcome's trace id is a recorded root, the
Chrome export parses back, and both variants end at the same simulated
time with the same delivered ratio and failover count.  The wall cost
of observability is measured by the benchmark harness
(``benchmarks/harness``: ``exchanges_per_s_obs`` vs
``exchanges_per_s``), not here.  Results land in ``BENCH_obs.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e14_observability.py [--quick]
"""

from __future__ import annotations

import json
import os
import sys

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
    outcomes = []
    for index in range(iterations):
        outcomes.append(
            federation.federated_exchange(ExchangeRequest(
                f"d0-p{index % 2}", f"d1-p{index % 2}", "app0", "app1", DOCUMENT
            ))
        )
        world.run_for(0.8)
    delivered = sum(1 for outcome in outcomes if outcome.delivered)
    failovers = sum(
        1
        for outcome in outcomes
        if any(hop.role == "relay" for hop in outcome.hops)
    )
    result = {
        "variant": "obs_on" if traced else "obs_off",
        "iterations": iterations,
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


def run_bench(iterations: int, quick: bool, down_s: float) -> dict:
    """One obs-off and one obs-on replay; return the result blob."""
    baseline = run_variant(traced=False, iterations=iterations, down_s=down_s)
    traced = run_variant(traced=True, iterations=iterations, down_s=down_s)
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
        print(f"  {variant['variant']:>8}: sim end {variant['sim_end_s']:7.1f} s  "
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


def check(blob: dict) -> None:
    """The acceptance criteria."""
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
    # same seed, same sim: observability must not change the outcome
    off, on = blob["variants"]
    for key in ("delivered_ratio", "failovers", "sim_end_s"):
        assert off[key] == on[key], (key, off[key], on[key])


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    blob = run_bench(
        16 if quick else 256, quick, down_s=12.0 if quick else 32.0
    )
    report(blob)
    print(f"  wrote {emit(blob)}")
    check(blob)
    print("  PASS: connected traces, >=95% coverage, no simulated drift")
    return 0


def test_observability_bench_smoke():
    """Pytest entry point: the variant machinery on a tiny workload."""
    blob = run_bench(10, quick=True, down_s=12.0)
    check(blob)
    assert [variant["variant"] for variant in blob["variants"]] == [
        "obs_off", "obs_on",
    ]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
