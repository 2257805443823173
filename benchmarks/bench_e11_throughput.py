"""E11 — exchange-pipeline fast path: resolution caches and the batch API.

The paper's central claim is that *one* shared environment mediating N
applications beats N^2 pairwise gateways; this bench checks what keeps
that mediation cheap.  Four configurations push the same document
stream through ``CSCWEnvironment``:

* **cold** — resolution cache disabled: every ``exchange()`` re-resolves
  org membership, policy compatibility and app formats from scratch
  (the reference the other three are checked against);
* **warm** — resolution cache enabled: repeated routes hit the memoised
  verdicts;
* **batch** — ``exchange_many()`` over one repeated document object,
  with route resolution hoisted once per same-route run;
* **batch, distinct docs** — the same batch over distinct document
  objects, so no translation is shared within the run.

Asserted: the cached and batched paths deliver outcomes field-identical
to the cold path (modulo trace ids), the warm loop is all route hits
with no misses, and a batch resolves its route once per run.  The wall
cost of these paths is measured by the benchmark harness
(``benchmarks/harness``: ``local_request`` and ``federated_digest``
``exchanges_per_s``), not here.

Results are written to ``BENCH_exchange.json`` (in ``BENCH_METRICS_DIR``
when set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e11_throughput.py [--quick]
"""

from __future__ import annotations

import json
import os
import sys

from bench_common import build_environment, synthetic_converter
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.obs import MetricsRegistry, Tracer
from repro.sim.world import World

#: organisations in the workload — uncached org resolution scans these
#: linearly, so the cold reference does the full many-org resolution
N_ORGS = 48

#: tiny document: the bench checks mediation bookkeeping, not JSON
DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def build_throughput_env(cache: bool) -> CSCWEnvironment:
    """A fully instrumented environment with a many-org population.

    Sender and receiver live in the *last* organisations registered; the
    knowledge base's person index finds them in one read either way, so
    the uncached path pays only a fresh policy verdict per call.
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
    return {name: value for name, value in outcome._asdict().items() if name != "trace_id"}


def run_bench(iterations: int, quick: bool) -> dict:
    """Run the four configurations; return the result blob."""
    sender, receiver = _sender_receiver()

    def request(document=DOCUMENT) -> ExchangeRequest:
        return ExchangeRequest(sender, receiver, "producer", "consumer", document)

    # -- cold: re-resolve everything per exchange -------------------------
    cold_env = build_throughput_env(cache=False)
    cold_outcomes = [cold_env.exchange(request()) for _ in range(iterations)]

    # -- warm: memoised resolution, still one call per document -----------
    warm_env = build_throughput_env(cache=True)
    warm_env.exchange(request())  # prime
    warm_before = warm_env.resolution.stats()
    warm_outcomes = [warm_env.exchange(request()) for _ in range(iterations)]
    warm_after = warm_env.resolution.stats()

    # -- batch: one exchange_many over the same stream --------------------
    batch_env = build_throughput_env(cache=True)
    batch_env.exchange(request())  # prime
    batch_before = batch_env.resolution.stats()
    batch_outcomes = batch_env.exchange_many([request() for _ in range(iterations)])
    batch_after = batch_env.resolution.stats()

    # -- batch over distinct document objects: no within-run translation
    # sharing --------------------------------------------------------------
    distinct_env = build_throughput_env(cache=True)
    distinct_env.exchange(request())
    distinct_outcomes = distinct_env.exchange_many(
        [request(dict(DOCUMENT)) for _ in range(iterations)]
    )

    # cached and batched exchanges must produce field-identical outcomes
    # (modulo trace ids) to the cold path
    assert all(outcome.delivered for outcome in cold_outcomes)
    reference = _outcome_fields(cold_outcomes[0])
    for outcome in cold_outcomes + warm_outcomes + batch_outcomes + distinct_outcomes:
        assert _outcome_fields(outcome) == reference

    def delta(after: dict, before: dict) -> dict:
        return {key: after[key] - before[key] for key in ("route_hits", "route_misses")}

    warm = delta(warm_after, warm_before)
    batch = delta(batch_after, batch_before)
    # the warm loop never re-resolves: one route hit per exchange
    assert warm == {"route_hits": iterations, "route_misses": 0}, warm
    # a same-route batch resolves its route once for the whole run
    assert batch == {"route_hits": 1, "route_misses": 0}, batch
    return {
        "bench": "exchange",
        "mode": "quick" if quick else "full",
        "iterations": iterations,
        "organisations": N_ORGS,
        "warm_loop": warm,
        "batch_run": batch,
        "resolution_cache": warm_after,
        "interchange_plans": {
            "hits": warm_env.interchange.plan_hits,
            "misses": warm_env.interchange.plan_misses,
        },
        "metrics": warm_env.metrics.snapshot(),
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_exchange.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_exchange.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print("\nE11: exchange-pipeline fast path "
          f"({blob['iterations']} exchanges, {blob['organisations']} orgs)")
    warm, batch = blob["warm_loop"], blob["batch_run"]
    print(f"  warm loop: {warm['route_hits']} route hits / "
          f"{warm['route_misses']} misses")
    print(f"  batch run: {batch['route_hits']} route hit / "
          f"{batch['route_misses']} misses for {blob['iterations']} exchanges")
    plans = blob["interchange_plans"]
    print(f"  translation plans: {plans['hits']} hits / {plans['misses']} misses")
    print("  cold, warm, batch and distinct-doc outcomes field-identical")


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    blob = run_bench(100 if quick else 2000, quick)
    report(blob)
    print(f"  wrote {emit(blob)}")
    return 0


def test_exchange_throughput_smoke():
    """Pytest entry point: all four paths on a tiny workload."""
    blob = run_bench(50, quick=True)
    assert blob["interchange_plans"]["hits"] >= 50
    assert blob["resolution_cache"]["invalidations"] == 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
