"""Checks of the benchmark harness itself.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/harness``; these tests are
outside the tier-1 suite.  They make two quick (1/50 size) traced runs
of every workload and check that every metric ``BENCHMARK.json``
declares is emitted with its unit, that every outcome matches the
oracle, and that the two runs repeat their digests and count-type layer
metrics exactly.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: per-layer metrics that are wall times, so may differ between runs
TIMED = ("self_us_per_op", "obs.overhead_us_per_op", "bench.")


def quick_run(out: Path) -> tuple[str, dict, dict[str, dict]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    results = {name: json.loads((out / f"BENCH_{name}.json").read_text()) for name in WORKLOADS}
    return done.stdout, json.loads(done.stdout.splitlines()[-1]), results


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory) -> list:
    return [quick_run(tmp_path_factory.mktemp(f"run{index}")) for index in range(2)]


def test_benchmark_json_is_well_formed() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/harness"]
    assert SPEC["command"][1] == "benchmarks/harness/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for group in ("end_to_end", "per_layer") for m in SPEC[group])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_metrics_are_exactly_the_emitted_ones() -> None:
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_every_declared_metric_is_emitted_with_its_unit(runs: list) -> None:
    stdout, summary, results = runs[0]
    lines = set(stdout.splitlines())
    for name, result in results.items():
        for group, declared in (("metrics", SPEC["end_to_end"]), ("per_layer", SPEC["per_layer"])):
            for metric in declared:
                emitted = result[group][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert f"{name} {metric['name']} {emitted['value']} {metric['unit']}" in lines
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert len(summary["metrics"]) == len(WORKLOADS) * len(SPEC["per_layer"])


def test_every_outcome_matches_the_oracle(runs: list) -> None:
    for _, summary, results in runs:
        assert summary["correct"] and summary["failed"] == 0
        for result in results.values():
            assert result["extras"]["error_ratio"]["value"] == 0
            assert len(set(result["digests"].values())) == 1, result["digests"]
            assert result["closure"]["span_cost_us"]["outer"] > 0


def test_quick_runs_repeat_exactly(runs: list) -> None:
    (_, _, first), (_, _, second) = runs
    for name in WORKLOADS:
        assert first[name]["digests"] == second[name]["digests"]
        counts = {
            key: metric["value"] for key, metric in first[name]["per_layer"].items()
            if not any(marker in key for marker in TIMED)
        }
        assert counts == {key: second[name]["per_layer"][key]["value"] for key in counts}


def test_compare_flags_regressions_and_wide_spreads() -> None:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, [v * 1.2 for v in steady], "lower", 0.05) == "regression"
    assert run.verdict(steady, [v * 1.02 for v in steady], "lower", 0.05) == "unchanged"
    assert run.verdict(steady, [v * 1.2 for v in steady], "higher", 0.05) == "unchanged"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert run.verdict(steady, noisy, "lower", 0.05) == "unresolved"
    assert run.verdict(noisy, [v / 2 for v in steady], "lower", 0.05) == "unchanged"


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "local_request"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
