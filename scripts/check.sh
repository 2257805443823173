#!/usr/bin/env sh
# One-command tier-1 verification (tox-free): unit/integration tests,
# the benchmark harness's own tests, the E-series bench smoke tests,
# whole-tree bytecode compilation, a doctest pass over the observability
# and utility packages, and quick runs of the E-series benches with the
# JSON guards that are not yet tier-1 tests.  End-to-end federation,
# resilience, control and mediation scenarios are tier-1 tests
# (test_federation.py, test_resilience.py, test_control.py,
# test_mediation.py).
# Run from the repository root:
#
#   sh scripts/check.sh
#
set -e

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== pytest (tier-1) =="
python -m pytest -x -q

echo "== pytest (benchmark harness: quick runs of every workload, outcome oracle) =="
python -m pytest -q benchmarks/harness

echo "== pytest (E-series bench smokes) =="
python -m pytest -q benchmarks --ignore=benchmarks/harness --benchmark-disable

echo "== compileall src =="
python -m compileall -q src

echo "== doctests (src/repro/obs, src/repro/util) =="
python -m pytest -q --doctest-modules src/repro/obs src/repro/util

echo "== bench_e7 throughput (smoke) =="
python benchmarks/bench_e7_throughput.py --smoke

echo "== bench_e8 federation (quick) =="
python benchmarks/bench_e8_federation.py --quick

echo "== federation fast-path guard (batched cross-domain cost) =="
python - <<'EOF'
# Regression fence for the federated batch fast path: the quick E12 run
# above wrote BENCH_federation.json; a change that reopens the
# cross-domain gap (per-request relays, re-resolved homes, unbatched
# intra runs) fails here, not in a full bench run someone forgets.
import json

with open("BENCH_federation.json", encoding="utf-8") as handle:
    blob = json.load(handle)
for sweep in blob["sweeps"]:
    if "cross_eps" not in sweep:
        continue
    n = sweep["domains"]
    ratio = sweep["cross_over_intra_wall"]
    assert ratio <= 2.0, (
        f"{n}-domain batched cross exchange costs {ratio}x a per-request "
        "intra exchange (budget: 2.0x)"
    )
    assert sweep["batch_speedup"] >= 2.0, (
        f"{n}-domain batch speedup {sweep['batch_speedup']}x under 2.0x"
    )
    # one batched relay per (pair, run): n pairs -> n relays
    assert sweep["cross_batch_relays"] == n, sweep["cross_batch_relays"]
    # exactly two home lookups per batched request (one per endpoint)
    assert sweep["home_hits_per_batch_request"] == 2.0, (
        sweep["home_hits_per_batch_request"]
    )
    print(f"  {n} domains: {ratio}x intra wall, "
          f"{sweep['batch_speedup']}x per-request cross, "
          f"{sweep['cross_batch_relays']} batched relays, "
          f"{sweep['home_hits_per_batch_request']} home hits/request")
print("fast-path guard ok")
EOF

echo "== bench_e9 resilience (quick) =="
python benchmarks/bench_e9_resilience.py --quick

echo "== bench_e10 observability (quick) =="
python benchmarks/bench_e10_observability.py --quick

echo "== bench_e11 control (quick) =="
python benchmarks/bench_e11_control.py --quick

echo "== bench_e12 shard scale (quick) =="
python benchmarks/bench_e12_shard.py --quick

echo "== bench_e13 mediation (quick) =="
python benchmarks/bench_e13_mediation.py --quick

echo "== bench_e14 telemetry (quick) =="
python benchmarks/bench_e14_telemetry.py --quick

echo "== telemetry guard (cardinality, retention, overhead cut) =="
python - <<'EOF'
# Regression fence for the PR 10 telemetry stack: the quick E18 run
# above wrote BENCH_telemetry.json; fail the build on a label-family
# cardinality breach, a lost error trace (tail retention must be
# complete and connected), growing SLO window memory, a non-reproducible
# export, or a sampling overhead cut below the floor.
import json

with open("BENCH_telemetry.json", encoding="utf-8") as handle:
    blob = json.load(handle)
limit = blob["cardinality_limit"]
for row in blob["sweep"] + [blob["overhead_point"]]:
    assert row["max_cardinality"] <= limit, row
    assert row["error_retention"] == 1.0, (
        f"lost error traces: {row['errors_retained']}/{row['errors_expected']}"
    )
    assert row["disconnected"] == 0, row
last = blob["sweep"][-1]
assert last["window_cells_mid"] == last["window_cells_end"], last
determinism = blob["determinism"]
assert determinism["snapshot_identical"] and determinism["jsonl_identical"]
reduction = blob["overhead"]["overhead_reduction"]
floor = blob["overhead"]["reduction_floor"]
assert reduction == "inf" or reduction >= floor, (
    f"sampling cut tracer overhead only {reduction}x (floor {floor}x)"
)
print(f"telemetry guard ok: cardinality <= {limit}, "
      f"{last['errors_retained']}/{last['errors_expected']} error traces "
      f"retained, {reduction}x overhead cut")
EOF

echo "== all checks passed =="
