#!/usr/bin/env sh
# One-command tier-1 verification (tox-free): unit/integration tests,
# the benchmark harness's own tests, the E-series bench smoke tests,
# whole-tree bytecode compilation, a doctest pass over every module in
# the package, quick runs of the untimed E13, E15 and E17 benches, and
# smoke runs of all six examples: the two that turn observability on
# (quickstart.py and federation_demo.py), the one that routes X.400 mail
# through MTAs (distributed_conference.py), and channel_tunnel.py,
# time_space_matrix.py and project_monitoring.py.
# Wall-clock cost is measured only by benchmarks/harness.
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

echo "== doctests (every module under src/repro) =="
python -m pytest -q --doctest-modules src/repro

echo "== bench_e13 resilience (quick) =="
python benchmarks/bench_e13_resilience.py --quick

echo "== bench_e15 control (quick) =="
python benchmarks/bench_e15_control.py --quick

echo "== bench_e17 mediation (quick) =="
python benchmarks/bench_e17_mediation.py --quick

echo "== example: quickstart (environment + builder + observability) =="
python examples/quickstart.py > /dev/null

echo "== example: federation_demo (federated, observed) =="
python examples/federation_demo.py > /dev/null

echo "== example: distributed_conference (X.400 mail through MTAs) =="
python examples/distributed_conference.py > /dev/null

echo "== example: channel_tunnel (the Channel Tunnel project programme) =="
python examples/channel_tunnel.py > /dev/null

echo "== example: time_space_matrix (one application per quadrant) =="
python examples/time_space_matrix.py > /dev/null

echo "== example: project_monitoring (awareness and analysis services) =="
python examples/project_monitoring.py > /dev/null

echo "== all checks passed =="
