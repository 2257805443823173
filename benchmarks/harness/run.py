"""The repo benchmark: four exchange workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python benchmarks/harness/run.py [--workload W] [--seed S] [--seconds N]
                                     [--quick] [--trace [0|1]] [--repeat N] [--out DIR]
    python benchmarks/harness/run.py compare DIR_A DIR_B

Each (workload, mode) is measured by ``measure.py`` in a fresh process,
one after another: ``off`` (the program as users run it), ``on``
(metrics, full-rate tracing and the event log attached) and, with
``--trace``, ``traced`` (the harness's span recorder around every layer
boundary).  The load is a closed loop: one client, one thread, each call
waiting for its outcome.  Every timing is reported at reference speed
(``hostspeed.py``), so a host that slows down for a while does not read
as a slower program.  ``--seconds`` sets the number of operations
(10 gives the sizes in ``workloads.py``; it is never a time limit), so
two commits measured with the same arguments do the same work.

Every metric is printed as ``workload name value unit``; the last line
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)
holding the end-to-end metrics, or with ``--trace`` the per-layer ones.
Each run is also written to ``DIR/BENCH_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, measured_exchanges  # noqa: E402

#: wall-clock budget of one workload's measuring processes, in seconds
WORKLOAD_BUDGET_S = 170
#: calibrated self times plus unattributed time must be within this
#: share of the untraced per-op time (both at reference speed)
CLOSURE_TOLERANCE = 0.2

#: end-to-end metrics: name -> unit (bounds live in BENCHMARK.json)
END_TO_END = {
    "exchanges_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "exchanges_per_s_obs": "1/s",
    "call_p50_us_obs": "us",
    "call_p99_us_obs": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls_per_op", "1/op"), ("self_us_per_op", "us/op"))},
    "environment.queue_flushed_per_op": "1/op",
    "environment.queue_max_depth": "count",
    "environment.resolution.route_hit_ratio": "ratio",
    "environment.resolution.format_hit_ratio": "ratio",
    "environment.resolution.evictions_per_write": "1/write",
    "information.interchange.plan_hit_ratio": "ratio",
    "mediation.plan_hit_ratio": "ratio",
    "util.serialization.bytes_per_op": "B/op",
    "federation.sim_latency_p99_ms": "ms",
    "federation.gateway.relays_per_cross_op": "1/op",
    "federation.gateway.retries": "count",
    "federation.gateway.dead_letters": "count",
    "sim.engine.events_per_op": "1/op",
    "obs.overhead_us_per_op": "us/op",
    "obs.spans_per_op": "1/op",
    "obs.series": "count",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_us_per_op": "us/op",
}


class MeasureError(RuntimeError):
    """A measuring process failed or ran out of time."""


def measure(workload: str, seed: int, exchanges: int, mode: str, out: Path,
            deadline: float) -> dict[str, Any]:
    """Run ``measure.py`` for one mode in a fresh process; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
               "--seed", str(seed), "--exchanges", str(exchanges), "--mode", mode,
               "--out", str(out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise MeasureError(f"{workload}/{mode} did not finish in time") from exc
    if done.returncode != 0:
        raise MeasureError(f"{workload}/{mode} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, quick: bool, trace: bool,
                 out: Path) -> dict[str, Any]:
    """Measure one workload in every mode and derive its metrics."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    exchanges = measured_exchanges(WORKLOADS[name], seconds, quick)
    modes = ("off", "on", "traced") if trace else ("off", "on")
    reports = {mode: measure(name, seed, exchanges, mode, out, deadline) for mode in modes}
    off, on = reports["off"], reports["on"]
    digests = {report["digest"] for report in reports.values()}
    attempted = sum(report["checked"] for report in reports.values())
    failed = sum(report["failed"] for report in reports.values())
    correct = (
        failed == 0
        and len(digests) == 1
        and not any(report["conservation_errors"] for report in reports.values())
    )
    metrics = {
        "exchanges_per_s": off["exchanges_per_s"],
        "call_p50_us": off["call_p50_us"],
        "call_p99_us": off["call_p99_us"],
        "exchanges_per_s_obs": on["exchanges_per_s"],
        "call_p50_us_obs": on["call_p50_us"],
        "call_p99_us_obs": on["call_p99_us"],
        "setup_s": off["setup_s"],
        "peak_rss_mb": off["peak_rss_mb"],
    }
    extras: dict[str, tuple[Any, str]] = {
        "error_ratio": (failed / attempted, "fraction"),
        "call_samples": (off["call_samples"], "count"),
        "call_samples_obs": (on["call_samples"], "count"),
        "call_windows": (off["call_windows"], "count"),
        "wall_exchanges_per_s": (1e6 / off["per_op_us"], "1/s"),
        "wall_exchanges_per_s_obs": (1e6 / on["per_op_us"], "1/s"),
        "host_speed": (off["host_speed"], "ratio"),
        "host_speed_obs": (on["host_speed"], "ratio"),
        "exchanges": (exchanges, "count"),
        "outcome_digest": (off["digest"], "sha256"),
    }
    result: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "correct": correct, "attempted": attempted, "failed": failed,
        "digests": {mode: report["digest"] for mode, report in reports.items()},
        "metrics": {key: {"value": value, "unit": END_TO_END[key]}
                    for key, value in metrics.items()},
        "extras": {key: {"value": value, "unit": unit} for key, (value, unit) in extras.items()},
    }
    if trace:
        traced = reports["traced"]
        layers = traced["layers"]
        # The two processes ran at different moments, so they are compared
        # at reference speed.
        untraced_us = off["per_op_us_ref"]
        per_layer = {f"{layer}.{kind}": row[kind] for layer, row in layers.items()
                     for kind in ("calls_per_op", "self_us_per_op")}
        per_layer.update(traced["counts"])
        per_layer.update({
            "obs.overhead_us_per_op": 1e6 / on["exchanges_per_s"] - 1e6 / off["exchanges_per_s"],
            "obs.spans_per_op": on["spans_per_op"],
            "obs.series": on["series"],
            "bench.trace_overhead_ratio": traced["per_op_us_ref"] / untraced_us,
            "bench.unattributed_us_per_op": traced["unattributed_us_per_op"],
        })
        attributed = sum(row["self_us_per_op"] for row in layers.values())
        closure = (attributed + traced["unattributed_us_per_op"]) / untraced_us
        result["per_layer"] = {key: {"value": per_layer[key], "unit": unit}
                               for key, unit in PER_LAYER.items()}
        result["layers"] = layers
        result["closure"] = {"ratio": closure, "ok": abs(closure - 1) <= CLOSURE_TOLERANCE,
                             "span_cost_us": traced["span_cost_us"]}
    return result


def print_result(result: dict[str, Any]) -> None:
    """Print every metric as ``workload name value unit``."""
    name = result["workload"]
    for group in ("metrics", "extras", "per_layer"):
        for key, metric in result.get(group, {}).items():
            print(f"{name} {key} {metric['value']} {metric['unit']}")
    if "layers" in result:
        print(f"{name} layer{'':22} calls/op  self us/op  total us/op (raw)")
        for layer, row in result["layers"].items():
            print(f"{name} {layer:27} {row['calls_per_op']:8.3f} {row['self_us_per_op']:11.3f}"
                  f" {row['total_us_per_op']:12.3f}")
        closure = result["closure"]
        verdict = "ok" if closure["ok"] else "FAILED"
        print(f"{name} bench.closure_ratio {closure['ratio']} ratio ({verdict}: "
              f"self + unattributed vs untraced per-op time at reference speed, "
              f"tolerance {CLOSURE_TOLERANCE})")
    if not result["correct"]:
        print(f"{name} INCORRECT: failed={result['failed']} digests={result['digests']}",
              file=sys.stderr)


def summary_line(runs: dict[str, list[dict[str, Any]]], trace: bool) -> dict[str, Any]:
    """The final JSON object: per metric the median over a workload's runs,
    names prefixed with the workload when there are several."""
    group = "per_layer" if trace else "metrics"
    metrics: dict[str, Any] = {}
    for name, results in runs.items():
        prefix = "" if len(runs) == 1 else f"{name}."
        for key, metric in results[0][group].items():
            values = [result[group][key]["value"] for result in results]
            metrics[prefix + key] = {"value": statistics.median(values), "unit": metric["unit"]}
    everything = [result for results in runs.values() for result in results]
    return {
        "correct": all(result["correct"] for result in everything),
        "attempted": sum(result["attempted"] for result in everything),
        "failed": sum(result["failed"] for result in everything),
        "metrics": metrics,
    }


# -- comparing sets of runs ----------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """``regression``, ``unresolved`` or ``unchanged`` for one metric.

    A median worse by more than *bound* is a regression.  When either
    side's spread (quartile distance over median) is wider than the
    bound, the comparison is unresolved, unless every run of *after*
    reads better than every run of *before*.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1_b, med_b, q3_b = quartiles(before)
    q1_a, med_a, q3_a = quartiles(after)
    all_better = max(sign * v for v in after) < min(sign * v for v in before)
    spread = max((q3_b - q1_b) / abs(med_b), (q3_a - q1_a) / abs(med_a))
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (med_a - med_b) / abs(med_b) > bound:
        return "regression"
    return "unchanged"


def load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Per-run result files in *directory*, grouped by workload."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    return runs


def compare(before_dir: Path, after_dir: Path) -> int:
    """Compare two sets of runs metric by metric against BENCHMARK.json bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load_runs(before_dir), load_runs(after_dir)
    counts = {"regression": 0, "unresolved": 0, "unchanged": 0}
    for workload in sorted(set(before) & set(after)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in before[workload]]
            b = [run["metrics"][name]["value"] for run in after[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            counts[result] += 1
            (q1a, ma, q3a), (q1b, mb, q3b) = quartiles(a), quartiles(b)
            print(f"{workload} {name} {ma:.6g} [{q1a:.6g}, {q3a:.6g}] -> "
                  f"{mb:.6g} [{q1b:.6g}, {q3b:.6g}] {100 * (mb - ma) / ma:+.2f}% "
                  f"bound {100 * metric['bound']:.0f}% {result}")
    print(json.dumps(counts))
    return 1 if counts["regression"] else 0


# -- entry point -----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare",
                                         description="Compare two sets of benchmark runs.")
        parser.add_argument("before", type=Path)
        parser.add_argument("after", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.before, args.after)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10,
                        help="run length; sets the operation count, not a time limit")
    parser.add_argument("--quick", action="store_true", help="1/50 of the operations")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the traced process and report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_<workload>[.run<i>].json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program is missing (no {SRC / 'repro'}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat must be >= 1 and --seconds > 0")
    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    try:
        for index in range(args.repeat):
            for name in names:
                result = run_workload(name, args.seed, args.seconds, args.quick,
                                      bool(args.trace), args.out)
                print_result(result)
                suffix = f".run{index}" if args.repeat > 1 else ""
                path = args.out / f"BENCH_{name}{suffix}.json"
                path.write_text(json.dumps(result, indent=1) + "\n")
                runs[name].append(result)
    except MeasureError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.repeat > 1:
        group = "per_layer" if args.trace else "metrics"
        for name, results in runs.items():
            for key in results[0][group]:
                q1, median, q3 = quartiles([r[group][key]["value"] for r in results])
                print(f"{name} {key} median {median} q1 {q1} q3 {q3}")
    print(json.dumps(summary_line(runs, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
