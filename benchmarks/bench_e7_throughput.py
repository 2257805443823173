"""E11 — exchange-pipeline throughput: resolution caches and the batch API.

The paper's central claim is that *one* shared environment mediating N
applications beats N^2 pairwise gateways; this bench measures the cost
of that mediation itself.  Three configurations push the same document
stream through ``CSCWEnvironment``:

* **cold** — resolution cache disabled: every ``exchange()`` re-resolves
  org membership, policy compatibility and app formats from scratch
  (the pre-fast-path behaviour);
* **warm** — resolution cache enabled: repeated routes hit the memoised
  verdicts;
* **batch** — ``exchange_many()``: one trace span and one metrics flush
  per batch on top of the warm caches, with route resolution hoisted
  once per same-route run.  The headline stream repeats one document
  object (a fan-out/notification workload, sharing its translation);
  a fourth measurement over distinct document objects records the
  lower bound of the batch speedup without that sharing.

Regenerated table: exchanges/second per configuration plus the two
speedup ratios the fast path promises (warm >= 2x cold, batch >= 3x the
per-call warm loop), with a field-identity check proving the cached and
batched paths deliver byte-identical outcomes (modulo trace ids).

Results are written to ``BENCH_exchange.json`` (in ``BENCH_METRICS_DIR``
when set, else the current directory) — the first recorded point of the
throughput trajectory.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e7_throughput.py [--smoke]

``--smoke`` (used by ``scripts/check.sh``) runs a tiny workload and
skips the timing-ratio assertions, so the whole fast path is exercised
on every check without depending on machine speed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import fields

from bench_common import build_environment, synthetic_converter
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.obs import MetricsRegistry, Tracer
from repro.sim.world import World

#: organisations in the workload — org resolution scans these linearly,
#: so the cold path pays the realistic many-org mediation cost
N_ORGS = 48

#: tiny document so the measurement isolates mediation overhead, not JSON
DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def build_throughput_env(cache: bool) -> CSCWEnvironment:
    """A fully instrumented environment with a many-org population.

    Sender and receiver live in the *last* organisations registered, so
    uncached ``organisation_of`` lookups walk the whole population —
    the honest cost of a shared mediator serving many organisations.
    """
    env = build_environment(
        World(seed=7),
        n_people=N_ORGS,
        orgs=[f"org{i:02d}" for i in range(N_ORGS)],
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        resolution_cache=cache,
    )
    sink = []
    env.applications.register(
        AppDescriptor(name="producer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=synthetic_converter(0)),
        lambda person, document, info: None,
    )
    env.applications.register(
        AppDescriptor(name="consumer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=synthetic_converter(1)),
        lambda person, document, info: sink.append(document),
    )
    return env


def _sender_receiver() -> tuple[str, str]:
    """The two people whose orgs sit at the end of the resolution scan."""
    return f"p{N_ORGS - 1}", f"p{N_ORGS - 2}"


def _outcome_fields(outcome) -> dict:
    return {f.name: getattr(outcome, f.name) for f in fields(outcome)
            if f.name != "trace_id"}


def run_bench(iterations: int, smoke: bool) -> dict:
    """Time the three configurations; return the result blob."""
    sender, receiver = _sender_receiver()

    # -- cold: re-resolve everything per exchange -------------------------
    cold_env = build_throughput_env(cache=False)
    cold_outcomes = []
    start = time.perf_counter()
    for _ in range(iterations):
        cold_outcomes.append(
            cold_env.exchange(ExchangeRequest(
                sender, receiver, "producer", "consumer", DOCUMENT
            ))
        )
    cold_s = time.perf_counter() - start

    # -- warm: memoised resolution, still one call per document -----------
    warm_env = build_throughput_env(cache=True)
    warm_env.exchange(ExchangeRequest(
        sender, receiver, "producer", "consumer", DOCUMENT
    ))  # prime
    warm_outcomes = []
    start = time.perf_counter()
    for _ in range(iterations):
        warm_outcomes.append(
            warm_env.exchange(ExchangeRequest(
                sender, receiver, "producer", "consumer", DOCUMENT
            ))
        )
    warm_s = time.perf_counter() - start

    # -- batch: one exchange_many over the same stream --------------------
    batch_env = build_throughput_env(cache=True)
    batch_env.exchange(ExchangeRequest(
        sender, receiver, "producer", "consumer", DOCUMENT
    ))  # prime
    requests = [
        ExchangeRequest(sender, receiver, "producer", "consumer", DOCUMENT)
        for _ in range(iterations)
    ]
    start = time.perf_counter()
    batch_outcomes = batch_env.exchange_many(requests)
    batch_s = time.perf_counter() - start

    # -- batch over distinct document objects: no within-run translation
    # sharing, so this is the lower bound of the batch speedup ----------
    distinct_env = build_throughput_env(cache=True)
    distinct_env.exchange(ExchangeRequest(
        sender, receiver, "producer", "consumer", DOCUMENT
    ))
    distinct_requests = [
        ExchangeRequest(sender, receiver, "producer", "consumer", dict(DOCUMENT))
        for _ in range(iterations)
    ]
    start = time.perf_counter()
    distinct_outcomes = distinct_env.exchange_many(distinct_requests)
    distinct_s = time.perf_counter() - start

    # Correctness before speed: cached and batched exchanges must produce
    # field-identical outcomes (modulo trace ids) to the cold path.
    reference = _outcome_fields(cold_outcomes[0])
    for outcome in warm_outcomes:
        assert _outcome_fields(outcome) == reference
    for outcome in batch_outcomes:
        assert _outcome_fields(outcome) == reference
    for outcome in distinct_outcomes:
        assert _outcome_fields(outcome) == reference
    assert all(outcome.delivered for outcome in cold_outcomes)

    cold_eps = iterations / cold_s
    warm_eps = iterations / warm_s
    batch_eps = iterations / batch_s
    distinct_eps = iterations / distinct_s
    blob = {
        "bench": "exchange",
        "mode": "smoke" if smoke else "full",
        "iterations": iterations,
        "organisations": N_ORGS,
        "cold_eps": round(cold_eps, 1),
        "warm_eps": round(warm_eps, 1),
        "batch_eps": round(batch_eps, 1),
        "batch_distinct_docs_eps": round(distinct_eps, 1),
        "warm_over_cold": round(warm_eps / cold_eps, 2),
        "batch_over_loop": round(batch_eps / warm_eps, 2),
        "batch_distinct_docs_over_loop": round(distinct_eps / warm_eps, 2),
        "resolution_cache": warm_env.resolution.stats(),
        "interchange_plans": {
            "hits": warm_env.interchange.plan_hits,
            "misses": warm_env.interchange.plan_misses,
        },
        "metrics": warm_env.metrics.snapshot(),
    }
    return blob


def emit(blob: dict) -> str:
    """Write ``BENCH_exchange.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_exchange.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print("\nE11: exchange-pipeline throughput "
          f"({blob['iterations']} exchanges, {blob['organisations']} orgs)")
    print(f"  cold  (no cache)      {blob['cold_eps']:>10.1f} exchanges/s")
    print(f"  warm  (cached)        {blob['warm_eps']:>10.1f} exchanges/s  "
          f"({blob['warm_over_cold']:.2f}x cold)")
    print(f"  batch (exchange_many) {blob['batch_eps']:>10.1f} exchanges/s  "
          f"({blob['batch_over_loop']:.2f}x per-call loop)")
    print(f"  batch, distinct docs  {blob['batch_distinct_docs_eps']:>10.1f} exchanges/s  "
          f"({blob['batch_distinct_docs_over_loop']:.2f}x per-call loop)")
    stats = blob["resolution_cache"]
    print(f"  cache: {stats['route_hits']} route hits / "
          f"{stats['route_misses']} misses, "
          f"{stats['invalidations']} invalidations")


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    iterations = 100 if smoke else 2000
    blob = run_bench(iterations, smoke)
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    if not smoke:
        # the fast-path acceptance bars (see ISSUE 2 / EXPERIMENTS.md)
        assert blob["warm_over_cold"] >= 2.0, (
            f"warm cache only {blob['warm_over_cold']}x cold (need >= 2x)"
        )
        assert blob["batch_over_loop"] >= 3.0, (
            f"exchange_many only {blob['batch_over_loop']}x loop (need >= 3x)"
        )
        print("  PASS: warm >= 2x cold, batch >= 3x per-call loop")
    return 0


def test_exchange_throughput_smoke():
    """Pytest entry point: exercise all three paths on a tiny workload."""
    blob = run_bench(50, smoke=True)
    assert blob["warm_eps"] > 0 and blob["batch_eps"] > 0
    stats = blob["resolution_cache"]
    assert stats["route_hits"] >= 49
    assert blob["interchange_plans"]["hits"] >= 49


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
