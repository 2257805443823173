"""E18 — telemetry at scale: labelled families, sampling, flat windows.

ISSUE 10's claim: the telemetry v3 stack keeps its cost *bounded* while
the system underneath it grows.  This bench replays an E16-style sharded
population (``with_sharding``, synthetic org/person install, warm
exchange routes) with a deterministic failure stream (every
``ERROR_EVERY``-th exchange targets a ghost receiver, the E13 chaos
stand-in for a single-domain soak) at 10^3 -> 10^4 exchanges, and pins
four scale properties:

* **cardinality stays capped** — the labelled metric families
  (``env.exchange.outcomes{domain,outcome}``,
  ``directory.ops{shard,op}``, ...) keep every per-family cardinality
  under :data:`~repro.obs.metrics.CARDINALITY_LIMIT` while the
  population grows 10x,
* **sampling cuts tracer overhead >= 2x** — head sampling at p=0.1
  (seeded, deterministic) costs at most half the full-rate tracing
  pipeline's wall overhead over the untraced baseline (instrumentation
  *plus* the in-loop exporter drain that serializes recorded spans,
  where full-rate pays for its volume), while **retaining 100% of
  error traces** via tail bias, every one of them a connected span
  tree,
* **windowed SLO memory is flat** — the engine's ring cells are
  identical mid-soak and at the end, and never exceed the slot budget,
* **same-seed reruns are byte-identical** — metric snapshots and span
  JSONL from two runs of the same seed compare equal as strings.

Results land in ``BENCH_telemetry.json`` (in ``BENCH_METRICS_DIR`` when
set, else the current directory); ``scripts/check.sh`` reads the blob
back and fails the build on a cardinality breach, lost error traces, or
an overhead cut below 2x.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e14_telemetry.py [--quick|--smoke]
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

from bench_common import synthetic_converter
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
#: sim seconds advanced between exchange bursts (ticks the SLO sampler)
TICK_EVERY, TICK_S = 8, 0.5
SAMPLING_P = 0.1
SLO_WINDOW_S = 30.0
SLO_PERIOD_S = 2.5
#: the sampled tracer must cost at most half the full-rate tracer
REDUCTION_FLOOR = 2.0

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}

#: tracer variants: no tracer, record-everything, head-sampled p=0.1
VARIANTS = ("off", "full", "sampled")


def build_env(population: int, organisations: int, variant: str):
    """One sharded telemetry-instrumented environment; returns handles."""
    world = World(seed=SEED)
    tracer = Tracer() if variant != "off" else None
    builder = (
        CSCWEnvironment.builder()
        .with_world(world)
        .with_name("telemetry")
        .with_metrics(MetricsRegistry())
        .with_sharding(N_SHARDS)
    )
    if tracer is not None:
        builder.with_tracer(tracer)
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


class Session:
    """One variant's environment plus its soak cursor.

    Splitting the soak into resumable bursts lets the overhead
    measurement interleave all three variants at a fine grain (see
    :func:`measure_overhead`) instead of differencing whole-run walls.
    """

    def __init__(self, population: int, variant: str) -> None:
        organisations = max(N_SHARDS, population // 100)
        (
            self.world, self.env, generator, self.tracer, self.slo
        ) = build_env(population, organisations, variant)
        self.variant = variant
        self.pairs = generator.sample_pairs(PAIRS)
        self.index = 0
        self.errors_expected = 0
        self.cells_mid: dict[str, int] = {}
        self.wall_s = 0.0
        #: spans already shipped by the in-loop exporter (kept for the
        #: post-run analysis; a real exporter would release them)
        self.exported: list = []
        self.export_bytes = 0

    def burst(self, count: int, mid_mark: int | None = None) -> float:
        """Run *count* exchanges, timed; returns the burst's wall time.

        The timed loop includes the exporter tick: every
        ``TICK_EVERY``-th exchange drains the tracer and serializes the
        batch to JSONL, the way an in-process exporter ships spans.
        That is where full-rate tracing pays for its volume — the
        sampled tracer drains only what head sampling kept plus the
        tail-retained error traces.
        """
        env, world, pairs = self.env, self.world, self.pairs
        drain = env.tracer.drain
        started = time.perf_counter()
        for _ in range(count):
            index = self.index
            sender, receiver = pairs[index % PAIRS]
            if index % ERROR_EVERY == ERROR_EVERY - 1:
                receiver = f"ghost-{index}"
                self.errors_expected += 1
            env.exchange(ExchangeRequest(
                sender, receiver, "producer", "consumer", DOCUMENT
            ))
            if index % TICK_EVERY == TICK_EVERY - 1:
                world.run_for(TICK_S)
                batch = drain()
                if batch:
                    self.export_bytes += len(to_jsonl(batch))
                    self.exported.extend(batch)
            self.index = index + 1
        elapsed = time.perf_counter() - started
        self.wall_s += elapsed
        if mid_mark is not None and self.index >= mid_mark and not self.cells_mid:
            self.cells_mid = self.slo.window_cells()
        return elapsed

    def spans(self) -> list:
        """Every recorded span: exported batches plus the undrained tail."""
        if self.tracer is None:
            return []
        return self.exported + self.tracer.finished()

    def as_run(self) -> dict:
        return {
            "variant": self.variant,
            "wall_s": self.wall_s,
            "errors_expected": self.errors_expected,
            "cells_mid": self.cells_mid or self.slo.window_cells(),
            "cells_end": self.slo.window_cells(),
            "env": self.env,
            "tracer": self.tracer,
            "slo": self.slo,
            "spans": self.spans(),
            "export_bytes": self.export_bytes,
        }


def run_variant(population: int, exchanges: int, variant: str) -> dict:
    """One soak; returns wall time, error bookkeeping, and raw handles."""
    session = Session(population, variant)
    gc.collect()
    session.burst(exchanges // 2, mid_mark=exchanges // 2)
    session.burst(exchanges - exchanges // 2)
    return session.as_run()


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


def measure_overhead(population: int, exchanges: int, repeats: int) -> dict:
    """Tracer overhead over the untraced baseline, per variant.

    Whole-run walls cannot be differenced on a noisy shared box: a CPU
    steal burst landing on one 0.5 s run swamps a 0.1 s overhead.  So
    the three variants run *interleaved*, in rotated round-robin bursts
    of ``BURST`` exchanges each — noise at any instant hits whichever
    variant happens to be running, and over ~40 rounds it spreads
    evenly.  Overheads are then differences of per-variant totals from
    the same wall-clock span.  The median over ``repeats`` independent
    passes (fresh environments each) shrugs off pass-level outliers.
    """
    full_overheads, sampled_overheads, walls = [], [], {v: [] for v in VARIANTS}
    burst = max(50, min(250, exchanges // 20))
    for _ in range(repeats):
        sessions = {v: Session(population, v) for v in VARIANTS}
        for session in sessions.values():  # warm-up burst, untimed
            session.burst(burst)
            session.wall_s = 0.0
        # the three installed populations are live heap: freeze them so
        # generational GC does not rescan them mid-burst
        gc.collect()
        gc.freeze()
        rounds = max(1, (exchanges - burst) // burst)
        for step in range(rounds):
            order = VARIANTS[step % 3:] + VARIANTS[:step % 3]
            for variant in order:
                sessions[variant].burst(burst)
            if step % 8 == 7:
                # spans exported since the last freeze are live heap too;
                # re-freezing between bursts keeps generational sweeps
                # (and their lumpy attribution) out of the timed loops
                gc.collect()
                gc.freeze()
        gc.unfreeze()
        off = sessions["off"].wall_s
        for variant in VARIANTS:
            walls[variant].append(sessions[variant].wall_s)
        full_overheads.append(sessions["full"].wall_s - off)
        sampled_overheads.append(sessions["sampled"].wall_s - off)
        last_sampled = sessions["sampled"].as_run()
        del sessions
        gc.collect()
    full_overhead = statistics.median(full_overheads)
    sampled_overhead = statistics.median(sampled_overheads)
    # a sampled overhead at or below measurement noise is a full win
    reduction = (
        full_overhead / sampled_overhead
        if sampled_overhead > 1e-9
        else float("inf")
    )
    return {
        "population": population,
        "exchanges": exchanges,
        "repeats": repeats,
        "wall_s": {
            variant: round(statistics.median(walls[variant]), 4)
            for variant in VARIANTS
        },
        "full_overhead_s": round(full_overhead, 4),
        "sampled_overhead_s": round(sampled_overhead, 4),
        "overhead_reduction": (
            round(reduction, 2) if reduction != float("inf") else "inf"
        ),
        "reduction_floor": REDUCTION_FLOOR,
        "sampled_run": last_sampled,
    }


def snapshot_bytes(run: dict) -> tuple[str, str]:
    """The two determinism artefacts: metric snapshot and span JSONL."""
    snapshot = json.dumps(
        run["env"].metrics.snapshot(), sort_keys=True, indent=2
    )
    return snapshot, to_jsonl(run["spans"])


def run_bench(populations: list[int], exchanges: list[int], mode: str,
              repeats: int) -> dict:
    # -- sweep: cardinality + retention at each population size ----------
    sweep = []
    for population, count in zip(populations, exchanges):
        run = run_variant(population, count, "sampled")
        row = {"population": population, "exchanges": count}
        row.update(analyse_sampled(run))
        sweep.append(row)

    # -- overhead: paired triples at the largest point -------------------
    overhead = measure_overhead(populations[-1], exchanges[-1], repeats)
    overhead_row = analyse_sampled(overhead.pop("sampled_run"))

    # -- determinism: two same-seed runs at the smallest point -----------
    first = run_variant(populations[0], exchanges[0], "sampled")
    second = run_variant(populations[0], exchanges[0], "sampled")
    first_snapshot, first_jsonl = snapshot_bytes(first)
    second_snapshot, second_jsonl = snapshot_bytes(second)
    determinism = {
        "snapshot_identical": first_snapshot == second_snapshot,
        "jsonl_identical": first_jsonl == second_jsonl,
        "snapshot_bytes": len(first_snapshot),
        "jsonl_spans": len(first["spans"]),
    }

    return {
        "bench": "telemetry",
        "mode": mode,
        "seed": SEED,
        "shards": N_SHARDS,
        "sampling_p": SAMPLING_P,
        "cardinality_limit": CARDINALITY_LIMIT,
        "sweep": sweep,
        "overhead": overhead,
        "overhead_point": overhead_row,
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
    overhead = blob["overhead"]
    print(f"  walls (median): off {overhead['wall_s']['off']:.3f}s  "
          f"full {overhead['wall_s']['full']:.3f}s  "
          f"sampled {overhead['wall_s']['sampled']:.3f}s")
    print(f"  tracer overhead: full {overhead['full_overhead_s']:.4f}s, "
          f"sampled {overhead['sampled_overhead_s']:.4f}s "
          f"({overhead['overhead_reduction']}x cut, floor "
          f"{overhead['reduction_floor']}x)")
    cells = blob["sweep"][-1]
    print(f"  slo window cells: mid {cells['window_cells_mid']} "
          f"end {cells['window_cells_end']}")
    determinism = blob["determinism"]
    print(f"  determinism: snapshot {determinism['snapshot_identical']}, "
          f"jsonl {determinism['jsonl_identical']} "
          f"({determinism['jsonl_spans']} spans)")
    print(f"  hot layers: {cells['profile_layers']}")


def check(blob: dict, strict: bool) -> None:
    """E18 acceptance; the overhead cut is asserted in full mode only."""
    limit = blob["cardinality_limit"]
    for row in blob["sweep"] + [blob["overhead_point"]]:
        assert row["max_cardinality"] <= limit, (
            f"family cardinality {row['max_cardinality']} breaches the "
            f"cap {limit} at population {row.get('population', '?')}"
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
    determinism = blob["determinism"]
    assert determinism["snapshot_identical"], "metric snapshots diverged"
    assert determinism["jsonl_identical"], "span exports diverged"
    assert determinism["jsonl_spans"] > 0, "sampled run retained nothing"
    if strict:
        # rings full by mid-soak: the cell count must not move afterwards
        assert last["window_cells_mid"] == last["window_cells_end"], (
            "SLO window memory grew between mid-soak and the end: "
            f"{last['window_cells_mid']} -> {last['window_cells_end']}"
        )
        overhead = blob["overhead"]
        reduction = overhead["overhead_reduction"]
        assert reduction == "inf" or reduction >= REDUCTION_FLOOR, (
            f"p={SAMPLING_P} sampling cut tracer overhead only "
            f"{reduction}x (floor {REDUCTION_FLOOR}x)"
        )


def main(argv: list[str]) -> int:
    if "--smoke" in argv:
        populations, exchanges, mode, repeats = [200], [200], "smoke", 1
    elif "--quick" in argv:
        populations, exchanges, mode, repeats = (
            [300, 1500], [400, 1200], "quick", 1
        )
    else:
        populations, exchanges, mode, repeats = (
            [1000, 10000], [1000, 10000], "full", 5
        )
    blob = run_bench(populations, exchanges, mode, repeats)
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    check(blob, strict=mode == "full")
    if mode == "full":
        print("  PASS: capped cardinality, >=2x sampling cut with 100% "
              "error retention, flat window memory, byte-identical reruns")
    return 0


def test_telemetry_bench_smoke():
    """Pytest entry point: the full machinery on a tiny soak."""
    blob = run_bench([200], [200], "smoke", repeats=1)
    check(blob, strict=False)
    row = blob["sweep"][0]
    assert row["sampled_out"] > 0, "head sampling never dropped a trace"
    # errors the head sample happened to keep need no tail rescue, so
    # tail_retained can undershoot errors_expected — but never hit zero
    assert row["tail_retained"] > 0, "tail retention never fired"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
