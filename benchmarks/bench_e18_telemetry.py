"""E18 — telemetry at scale: labelled families, sampling, flat windows.

The claim: the telemetry stack keeps its cost *bounded* while the system
underneath it grows.  This bench replays an E16-style sharded population
(``with_sharding``, synthetic org/person install, warm exchange routes)
with a deterministic failure stream (every ``ERROR_EVERY``-th exchange
targets a ghost receiver, the E13 chaos stand-in for a single-domain
soak) at 10^3 -> 10^4 exchanges, and pins five scale properties:

* **cardinality stays capped** — the labelled metric families
  (``env.exchange.outcomes{domain,outcome}``,
  ``directory.ops{shard,op}``, ...) keep every per-family cardinality
  under :data:`~repro.obs.metrics.CARDINALITY_LIMIT` while the
  population grows 10x,
* **sampling cuts the export >= 2x** — over the same seeded soak, head
  sampling at p=0.1 ships at most half the spans and half the JSONL
  bytes that full-rate tracing ships through the in-loop exporter,
* **error traces are all kept** — tail bias retains 100% of error
  traces under sampling, every one of them a connected span tree,
* **windowed SLO memory is flat** — the engine's ring cells are
  identical mid-soak and at the end, and never exceed the slot budget,
* **same-seed reruns are byte-identical** — metric snapshots and span
  JSONL from two runs of the same seed compare equal as strings.

The wall cost of tracing is measured by the benchmark harness
(``benchmarks/harness``: ``exchanges_per_s_obs`` vs
``exchanges_per_s``), not here.  Results land in
``BENCH_telemetry.json`` (in ``BENCH_METRICS_DIR`` when set, else the
current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e18_telemetry.py [--quick|--smoke]
"""

from __future__ import annotations

import json
import os
import sys

from bench_common import canonical_sha256, synthetic_converter
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.obs import (
    CARDINALITY_LIMIT,
    MetricsRegistry,
    SLOEngine,
    TraceAnalyzer,
    Tracer,
    profile_spans,
    to_jsonl,
)
from repro.sim.world import World
from repro.workload import PopulationGenerator, PopulationSpec

SEED = 11
N_SHARDS = 8
#: warm exchange routes cycled by the soak
PAIRS = 32
#: every k-th exchange targets a ghost receiver: a deterministic error
#: stream the tail-biased sampler must retain at 100%
ERROR_EVERY = 25
#: sim seconds advanced between exchange bursts (ticks the SLO sampler
#: and the exporter)
TICK_EVERY, TICK_S = 8, 0.5
SAMPLING_P = 0.1
SLO_WINDOW_S = 30.0
SLO_PERIOD_S = 2.5
#: the sampled export must be at most half the full-rate export
EXPORT_CUT_FLOOR = 2.0

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def build_env(population: int, organisations: int, variant: str):
    """One sharded, traced environment (``"full"`` or ``"sampled"``)."""
    world = World(seed=SEED)
    tracer = Tracer()
    builder = (
        CSCWEnvironment.builder()
        .with_world(world)
        .with_name("telemetry")
        .with_metrics(MetricsRegistry())
        .with_sharding(N_SHARDS)
        .with_tracer(tracer)
    )
    if variant == "sampled":
        builder.with_trace_sampling(SAMPLING_P, seed=SEED)
    env = builder.build()
    generator = PopulationGenerator(
        PopulationSpec(
            people=population,
            organisations=organisations,
            seed=SEED,
            open_policy_orgs=min(organisations, PAIRS + 2),
        )
    )
    generator.install(env)
    for name, app_index in (("producer", 0), ("consumer", 1)):
        env.applications.register(
            AppDescriptor(
                name=name,
                quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                converter=synthetic_converter(app_index),
            ),
            lambda person, document, info: None,
        )
    slo = SLOEngine(
        world.engine, env.metrics, sample_period_s=SLO_PERIOD_S
    ).add_ratio(
        "delivered",
        f"env.exchange.outcomes{{domain={env.name},outcome=delivered}}",
        "env.exchange.attempted",
        target=0.9,
        window_s=SLO_WINDOW_S,
    )
    slo.start()
    return world, env, generator, tracer, slo


def run_variant(population: int, exchanges: int, variant: str) -> dict:
    """One soak with an in-loop exporter; returns its spans and handles.

    Every ``TICK_EVERY``-th exchange advances the sim clock and drains
    the tracer, serializing the batch to JSONL the way an in-process
    exporter ships spans; the final tail is drained the same way, so
    ``spans`` is everything the exporter shipped.
    """
    organisations = max(N_SHARDS, population // 100)
    world, env, generator, tracer, slo = build_env(population, organisations, variant)
    pairs = generator.sample_pairs(PAIRS)
    exported: list = []
    export_bytes = errors_expected = 0
    cells_mid: dict[str, int] = {}

    def export() -> None:
        nonlocal export_bytes
        batch = tracer.drain()
        if batch:
            export_bytes += len(to_jsonl(batch))
            exported.extend(batch)

    for index in range(exchanges):
        sender, receiver = pairs[index % PAIRS]
        if index % ERROR_EVERY == ERROR_EVERY - 1:
            receiver = f"ghost-{index}"
            errors_expected += 1
        env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", DOCUMENT
        ))
        if index % TICK_EVERY == TICK_EVERY - 1:
            world.run_for(TICK_S)
            export()
        if index + 1 == exchanges // 2:
            cells_mid = slo.window_cells()
    export()
    return {
        "errors_expected": errors_expected,
        "cells_mid": cells_mid,
        "cells_end": slo.window_cells(),
        "env": env,
        "tracer": tracer,
        "slo": slo,
        "spans": exported,
        "export_bytes": export_bytes,
    }


def error_trace_ids(spans) -> set[str]:
    """Trace ids whose env.exchange span settled with a failure reason."""
    return {
        span.trace_id
        for span in spans
        if span.name == "env.exchange"
        and span.tags.get("reason_code") not in (None, "delivered")
    }


def analyse_sampled(run: dict) -> dict:
    """Retention, connectivity, cardinality, and window memory for a run."""
    tracer: Tracer = run["tracer"]
    spans = run["spans"]
    analyzer = TraceAnalyzer(spans)
    summary = analyzer.summary()
    retained_errors = len(error_trace_ids(spans))
    cardinality = run["env"].metrics.cardinality()
    profile = profile_spans(spans)
    return {
        "errors_expected": run["errors_expected"],
        "errors_retained": retained_errors,
        "error_retention": (
            round(retained_errors / run["errors_expected"], 4)
            if run["errors_expected"]
            else 1.0
        ),
        "traces": summary["traces"],
        "spans": summary["spans"],
        "connected": summary["connected"],
        "disconnected": summary["disconnected"],
        "sampled_in": tracer.sampled_in,
        "sampled_out": tracer.sampled_out,
        "tail_retained": tracer.tail_retained,
        "families": len(cardinality),
        "max_cardinality": max(cardinality.values()) if cardinality else 0,
        "slo": run["slo"].evaluate(),
        "window_cells_mid": run["cells_mid"],
        "window_cells_end": run["cells_end"],
        "profile_layers": [row["layer"] for row in profile.layers()[:3]],
    }


def export_volume(run: dict) -> dict:
    """What the in-loop exporter shipped for one run."""
    return {
        "spans": len(run["spans"]),
        "bytes": run["export_bytes"],
        "errors_expected": run["errors_expected"],
        "errors_retained": len(error_trace_ids(run["spans"])),
    }


def snapshot_bytes(run: dict) -> tuple[str, str]:
    """The two determinism artefacts: metric snapshot and span JSONL."""
    snapshot = json.dumps(
        run["env"].metrics.snapshot(), sort_keys=True, indent=2
    )
    return snapshot, to_jsonl(run["spans"])


def run_bench(populations: list[int], exchanges: list[int], mode: str) -> dict:
    # -- sweep: cardinality + retention at each population size ----------
    runs = [
        run_variant(population, count, "sampled")
        for population, count in zip(populations, exchanges)
    ]
    sweep = [
        {"population": population, "exchanges": count, **analyse_sampled(run)}
        for population, count, run in zip(populations, exchanges, runs)
    ]

    # -- export cut: full rate over the largest point's soak -------------
    full = export_volume(run_variant(populations[-1], exchanges[-1], "full"))
    sampled = export_volume(runs[-1])
    export = {
        "population": populations[-1],
        "exchanges": exchanges[-1],
        "full": full,
        "sampled": sampled,
        "spans_cut": round(full["spans"] / max(sampled["spans"], 1), 2),
        "bytes_cut": round(full["bytes"] / max(sampled["bytes"], 1), 2),
    }

    # -- determinism: a same-seed rerun of the smallest point ------------
    first_snapshot, first_jsonl = snapshot_bytes(runs[0])
    second_snapshot, second_jsonl = snapshot_bytes(
        run_variant(populations[0], exchanges[0], "sampled")
    )
    determinism = {
        "snapshot_identical": first_snapshot == second_snapshot,
        "jsonl_identical": first_jsonl == second_jsonl,
        "snapshot_bytes": len(first_snapshot),
        "jsonl_spans": len(runs[0]["spans"]),
    }

    return {
        "bench": "telemetry",
        "mode": mode,
        "seed": SEED,
        "shards": N_SHARDS,
        "sampling_p": SAMPLING_P,
        "cardinality_limit": CARDINALITY_LIMIT,
        "sweep": sweep,
        "export": export,
        "determinism": determinism,
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_telemetry.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_telemetry.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print(f"\nE18: telemetry at scale ({blob['mode']} mode, seed {blob['seed']}, "
          f"{blob['shards']} shards, p={blob['sampling_p']})")
    print(f"  {'population':>10}  {'exchanges':>9}  {'families':>8}  "
          f"{'max card':>8}  {'errors':>6}  {'retained':>8}  {'traces':>6}")
    for row in blob["sweep"]:
        print(f"  {row['population']:>10}  {row['exchanges']:>9}  "
              f"{row['families']:>8}  {row['max_cardinality']:>8}  "
              f"{row['errors_expected']:>6}  {row['errors_retained']:>8}  "
              f"{row['traces']:>6}")
    export = blob["export"]
    for variant in ("full", "sampled"):
        volume = export[variant]
        print(f"  export {variant:>7}: {volume['spans']:>6} spans "
              f"{volume['bytes']:>9} B, {volume['errors_retained']}/"
              f"{volume['errors_expected']} error traces")
    print(f"  export cut: {export['spans_cut']}x spans, "
          f"{export['bytes_cut']}x bytes (floor {EXPORT_CUT_FLOOR}x)")
    cells = blob["sweep"][-1]
    print(f"  slo window cells: mid {cells['window_cells_mid']} "
          f"end {cells['window_cells_end']}")
    determinism = blob["determinism"]
    print(f"  determinism: snapshot {determinism['snapshot_identical']}, "
          f"jsonl {determinism['jsonl_identical']} "
          f"({determinism['jsonl_spans']} spans)")
    print(f"  hot layers: {cells['profile_layers']}")


def check(blob: dict) -> None:
    """E18 acceptance."""
    limit = blob["cardinality_limit"]
    for row in blob["sweep"]:
        assert row["max_cardinality"] <= limit, (
            f"family cardinality {row['max_cardinality']} breaches the "
            f"cap {limit} at population {row['population']}"
        )
        assert row["error_retention"] == 1.0, (
            f"tail bias lost error traces: {row['errors_retained']} of "
            f"{row['errors_expected']} retained"
        )
        assert row["disconnected"] == 0, (
            f"{row['disconnected']} retained traces lost their root"
        )
        assert row["errors_expected"] > 0, "error stream never fired"
    if len(blob["sweep"]) >= 2:
        growth = (
            blob["sweep"][-1]["population"] / blob["sweep"][0]["population"]
        )
        assert growth >= 2, "sweep must grow the population"
    slots = int(SLO_WINDOW_S / SLO_PERIOD_S)
    last = blob["sweep"][-1]
    for checkpoint in ("window_cells_mid", "window_cells_end"):
        for name, cells in last[checkpoint].items():
            assert cells <= slots, f"{name} {checkpoint}: {cells} > {slots}"
    # every mode's last soak outlasts one SLO window by mid-soak, so its
    # rings are full there: the cell count must not move afterwards
    assert last["window_cells_mid"] == last["window_cells_end"], (
        "SLO window memory grew between mid-soak and the end: "
        f"{last['window_cells_mid']} -> {last['window_cells_end']}"
    )
    export = blob["export"]
    for variant in ("full", "sampled"):
        volume = export[variant]
        assert volume["errors_retained"] == volume["errors_expected"], (variant, volume)
    for key in ("spans_cut", "bytes_cut"):
        assert export[key] >= EXPORT_CUT_FLOOR, (
            f"p={SAMPLING_P} sampling cut the export only {export[key]}x "
            f"by {key.split('_')[0]} (floor {EXPORT_CUT_FLOOR}x)"
        )
    determinism = blob["determinism"]
    assert determinism["snapshot_identical"], "metric snapshots diverged"
    assert determinism["jsonl_identical"], "span exports diverged"
    assert determinism["jsonl_spans"] > 0, "sampled run retained nothing"


#: sha256 of the smoke run's result as sorted-key JSON: cardinalities,
#: sampling counts, export volumes and the SLO window cells all land in
#: it, so a change that moves any of them fails here
SMOKE_SHA256 = "f477e10039d0ac7f5e50ed8b60becef3c0315ea5ad28cdbad872d75242d43041"


def main(argv: list[str]) -> int:
    if "--smoke" in argv:
        populations, exchanges, mode = [200], [1200], "smoke"
    elif "--quick" in argv:
        populations, exchanges, mode = [300, 1500], [400, 1200], "quick"
    else:
        populations, exchanges, mode = [1000, 10000], [1000, 10000], "full"
    blob = run_bench(populations, exchanges, mode)
    report(blob)
    print(f"  wrote {emit(blob)}")
    check(blob)
    print("  PASS: capped cardinality, >=2x export cut with 100% error "
          "retention, flat window memory, byte-identical reruns")
    return 0


def test_telemetry_bench_smoke():
    """Pytest entry point: the full machinery on a small population."""
    blob = run_bench([200], [1200], "smoke")
    check(blob)
    row = blob["sweep"][0]
    assert row["sampled_out"] > 0, "head sampling never dropped a trace"
    # errors the head sample happened to keep need no tail rescue, so
    # tail_retained can undershoot errors_expected — but never hit zero
    assert row["tail_retained"] > 0, "tail retention never fired"
    assert canonical_sha256(blob) == SMOKE_SHA256


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
