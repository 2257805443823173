"""E13 — resilience: breakers + failover vs bare retry under seeded chaos.

The paper's engineering-viewpoint concern is that an open CSCW federation
must keep functioning when parts of it misbehave.  This bench replays the
*same* seeded chaos schedule — a flapping WAN link between two domains,
with down-windows longer than the full gateway retry budget — against two
otherwise identical three-domain federations:

* **retry_only** — ``resilience=False``: gateways retry blindly until the
  budget is exhausted, then park the payload in the dead-letter queue;
* **resilient** — circuit breakers on every gateway, health-check probes
  feeding them, and failover routing through the healthy third domain
  when the direct link's breaker is open.

Reported per variant: delivered / degraded (delivered via an extra relay
hop) / dead-lettered / expired ratios and the p50/p99 *simulated*
exchange latency.  Full mode asserts the acceptance criterion: the
resilient variant strictly improves both delivered ratio and p99 latency.
Results land in ``BENCH_resilience.json`` (in ``BENCH_METRICS_DIR`` when
set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e13_resilience.py [--quick]

``--quick`` (used by ``scripts/check.sh``; ``--smoke`` is accepted as an
alias) runs a small workload and skips the strict-improvement assertions
that need real iteration counts.
"""

from __future__ import annotations

import json
import os
import sys

from bench_common import canonical_sha256, synthetic_converter
from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.obs import MetricsRegistry
from repro.resilience import ChaosRunner
from repro.sim.world import World

#: shared sim seed: both variants see the identical chaos schedule
SEED = 11

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def build_federation(resilient: bool) -> Federation:
    """Three domains (the third exists to host failover), apps everywhere."""
    world = World(seed=SEED)
    assignment = {f"d{index}": [f"d{index}-p0", f"d{index}-p1"] for index in range(3)}
    federation = Federation.partition(
        world, assignment, metrics=MetricsRegistry(), resilience=resilient
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
    if resilient:
        federation.start_health_checks(period_s=1.0, timeout_s=0.5)
    return federation


def schedule_chaos(federation: Federation, down_s: float) -> ChaosRunner:
    """The seeded schedule: one long d0-d1 outage, several retry budgets wide.

    Both variants lose the relay already in flight when the link goes
    dark — no breaker can un-launch it.  What differs is everything
    after: retry-only burns a full budget per exchange for the rest of
    the window, while the resilient variant's (now open) breaker routes
    around the outage via d2.
    """
    chaos = ChaosRunner(federation.world, name="bench-e13")
    chaos.flap_link(
        federation.domain("d0").node,
        federation.domain("d1").node,
        start=5.0,
        down_s=down_s,   # several times the 7.5s gateway retry budget
        up_s=5.0,
        flaps=1,
    )
    return chaos


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def run_variant(resilient: bool, iterations: int, down_s: float) -> dict:
    """Push the d0->d1 stream through one variant under the chaos schedule."""
    federation = build_federation(resilient)
    schedule_chaos(federation, down_s=down_s)
    world = federation.world
    outcomes = []
    for index in range(iterations):
        outcomes.append(
            federation.federated_exchange(ExchangeRequest(
                f"d0-p{index % 2}", f"d1-p{index % 2}", "app0", "app1", DOCUMENT
            ))
        )
        world.run_for(0.8)
    delivered = [o for o in outcomes if o.delivered]
    degraded = [
        o for o in delivered if any(hop.role == "relay" for hop in o.hops)
    ]
    latencies = [o.latency_s for o in outcomes]
    counters = federation._metrics.snapshot()["counters"]
    return {
        "variant": "resilient" if resilient else "retry_only",
        "iterations": iterations,
        "delivered_ratio": round(len(delivered) / iterations, 4),
        "degraded_ratio": round(len(degraded) / iterations, 4),
        "dead_letter_ratio": round(
            sum(1 for o in outcomes if o.reason_code == "gateway-dead-letter")
            / iterations,
            4,
        ),
        "expired_ratio": round(
            sum(1 for o in outcomes if o.reason_code == "deadline-exceeded")
            / iterations,
            4,
        ),
        "p50_sim_latency_s": round(percentile(latencies, 0.50), 4),
        "p99_sim_latency_s": round(percentile(latencies, 0.99), 4),
        "failovers": counters.get("env.federation.failover", 0),
        "breaker_counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith("resilience.breaker.")
        },
    }


def run_bench(iterations: int, quick: bool, down_s: float = 32.0) -> dict:
    """Both variants against the same chaos; return the result blob."""
    retry_only = run_variant(resilient=False, iterations=iterations, down_s=down_s)
    resilient = run_variant(resilient=True, iterations=iterations, down_s=down_s)
    return {
        "bench": "resilience",
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "outage_s": down_s,
        "variants": [retry_only, resilient],
        "comparison": {
            "delivered_gain": round(
                resilient["delivered_ratio"] - retry_only["delivered_ratio"], 4
            ),
            "p99_speedup": round(
                retry_only["p99_sim_latency_s"]
                / max(resilient["p99_sim_latency_s"], 1e-9),
                2,
            ),
        },
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_resilience.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_resilience.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


#: sha256 of the smoke run's result as sorted-key JSON: retry, failover
#: and dead-letter timing all land in its ratios and latencies, so a
#: change that moves any of them fails here, not only in a reviewed diff
SMOKE_SHA256 = "878d9bb4b8cea86a06d48c9b185665f2b7105ebc07208431939cc9c828f8045f"


def report(blob: dict) -> None:
    print(f"\nE13: resilience under seeded chaos ({blob['mode']} mode, "
          f"seed {blob['seed']})")
    for variant in blob["variants"]:
        print(f"  {variant['variant']:>10}: "
              f"delivered {variant['delivered_ratio'] * 100:5.1f}% "
              f"(degraded {variant['degraded_ratio'] * 100:5.1f}%)  "
              f"dead-lettered {variant['dead_letter_ratio'] * 100:5.1f}%  "
              f"p50 {variant['p50_sim_latency_s'] * 1000:7.1f} ms  "
              f"p99 {variant['p99_sim_latency_s'] * 1000:7.1f} ms  "
              f"failovers {variant['failovers']}")
    comparison = blob["comparison"]
    print(f"  breakers+failover: +{comparison['delivered_gain'] * 100:.1f} "
          f"points delivered, p99 {comparison['p99_speedup']:.2f}x faster")


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    iterations = 16 if quick else 64
    blob = run_bench(iterations, quick, down_s=12.0 if quick else 32.0)
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    if not quick:
        retry_only, resilient = blob["variants"]
        # acceptance criterion: under the same seeded chaos, breakers +
        # failover strictly improve delivered ratio AND tail latency
        assert resilient["delivered_ratio"] > retry_only["delivered_ratio"], (
            f"resilient delivered {resilient['delivered_ratio']} is not "
            f"better than retry-only {retry_only['delivered_ratio']}"
        )
        assert resilient["p99_sim_latency_s"] < retry_only["p99_sim_latency_s"], (
            f"resilient p99 {resilient['p99_sim_latency_s']}s is not "
            f"better than retry-only {retry_only['p99_sim_latency_s']}s"
        )
        assert resilient["failovers"] > 0, "failover path never exercised"
        print("  PASS: breakers+failover strictly improve delivery and p99")
    return 0


def test_resilience_bench_smoke():
    """Pytest entry point: the variant machinery on a tiny workload."""
    blob = run_bench(12, quick=True, down_s=12.0)
    retry_only, resilient = blob["variants"]
    assert retry_only["variant"] == "retry_only"
    assert resilient["variant"] == "resilient"
    # both variants conserve outcomes: every exchange is accounted for
    for variant in blob["variants"]:
        assert variant["delivered_ratio"] + variant["dead_letter_ratio"] + \
            variant["expired_ratio"] >= 0.99
    assert resilient["delivered_ratio"] >= retry_only["delivered_ratio"]
    assert resilient["breaker_counters"], "breaker metrics missing"
    assert not retry_only["breaker_counters"]
    assert canonical_sha256(blob) == SMOKE_SHA256


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
