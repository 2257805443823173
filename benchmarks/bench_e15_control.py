"""E15 — adaptive control: SLO-driven auto-remediation vs static resilience.

The ODP management viewpoint asks for a platform that *reconfigures
itself* when service levels degrade.  This bench replays the seeded E13
chaos schedule — the long d0-d1 outage — and extends it with the regime
E13 never tested: a **brownout**, where the link stays up but drops a
fraction of packets.  A hard outage is the easy case (the blocked
relay's own failures trip the circuit breaker within a second); a
brownout is the hard one — successes keep resetting the breaker's
consecutive-failure streak, so a purely reactive stack keeps feeding
traffic to a link that is quietly eating its deadline budget.  Three
otherwise identical three-domain federations carry deadline-bound
interactive traffic (every exchange must deliver within ``DEADLINE_S``
simulated seconds):

* **reactive** — ``resilience=False``: gateways retry blindly until the
  deadline expires; every in-outage exchange costs its full deadline;
* **resilient** — the PR 4 stack: circuit breakers fed by health probes
  and gateway failures, failover routing once a breaker opens.  Handles
  the outage, but the brownout never feeds it the consecutive failures
  it needs, so lossy-link retries and expiries leak through;
* **adaptive** — the resilient stack plus a started
  :class:`~repro.control.plane.ControlPlane`: the first retry surge /
  health-trend dip soft-drains the degrading link while the breaker is
  still closed, failover engages immediately, and a delivered-ratio SLO
  burning drives the load-management actions (relay-budget boost,
  shadowing re-balance); recovery reverts everything.

Reported per variant: delivered / expired / dead-lettered ratios,
p50/p99 *simulated* latency, failover and control-action counts.  Full
mode asserts the acceptance criterion: adaptive strictly dominates both
baselines on delivered ratio AND p99, and two adaptive runs of the same
seed produce identical results.  Results land in ``BENCH_control.json``
(in ``BENCH_METRICS_DIR`` when set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e15_control.py [--quick]

``--quick`` (used by ``scripts/check.sh``; ``--smoke`` is accepted as an
alias) runs a small workload and skips the strict-dominance assertions
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
from repro.obs import MetricsRegistry, RatioSLO, SLOEngine
from repro.resilience import ChaosRunner
from repro.sim.world import World

#: shared sim seed: all variants see the identical chaos schedule
SEED = 11

#: every exchange must deliver within this many simulated seconds
DEADLINE_S = 1.0

#: brownout packet-loss fraction on the d0-d1 link
BROWNOUT_LOSS = 0.45

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}

VARIANTS = ("reactive", "resilient", "adaptive")


def build_federation(variant: str) -> Federation:
    """Three domains (the third hosts failover), deadline-bound traffic."""
    world = World(seed=SEED)
    assignment = {f"d{index}": [f"d{index}-p0", f"d{index}-p1"] for index in range(3)}
    metrics = MetricsRegistry()
    federation = Federation.partition(
        world,
        assignment,
        metrics=metrics,
        resilience=variant != "reactive",
        default_deadline_s=DEADLINE_S,
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
    if variant != "reactive":
        federation.start_health_checks(period_s=1.0, timeout_s=0.5)
    if variant == "adaptive":
        slo = SLOEngine(world.engine, metrics, sample_period_s=0.5).declare(
            RatioSLO(
                "federated-delivery",
                good="env.federation.delivered",
                total="env.federation.exchanges",
                target=0.99,
                window_s=10.0,
            )
        )
        slo.start()
        federation.attach_control(slo=slo).start()
    return federation


def schedule_chaos(
    federation: Federation,
    down_s: float,
    brownout_start: float,
    brownout_s: float,
) -> ChaosRunner:
    """The E13 outage (d0-d1 dark from t=5), then a d0-d1 brownout."""
    chaos = ChaosRunner(federation.world, name="bench-e15")
    d0, d1 = federation.domain("d0").node, federation.domain("d1").node
    chaos.flap_link(d0, d1, start=5.0, down_s=down_s, up_s=5.0, flaps=1)
    chaos.degrade_link(
        d0, d1, start=brownout_start, degraded_s=brownout_s, loss=BROWNOUT_LOSS
    )
    return chaos


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def run_variant(
    variant: str,
    iterations: int,
    down_s: float,
    brownout_start: float,
    brownout_s: float,
) -> dict:
    """Push the d0->d1 stream through one variant under the chaos schedule."""
    federation = build_federation(variant)
    schedule_chaos(
        federation,
        down_s=down_s,
        brownout_start=brownout_start,
        brownout_s=brownout_s,
    )
    world = federation.world
    outcomes = []
    for index in range(iterations):
        outcomes.append(
            federation.federated_exchange(ExchangeRequest(
                f"d0-p{index % 2}", f"d1-p{index % 2}", "app0", "app1", DOCUMENT
            ))
        )
        world.run_for(0.8)
    # settle: let health trends go clean and the control loop revert
    # every applied action before sampling its final state
    world.run_for(25.0)
    delivered = [o for o in outcomes if o.delivered]
    degraded = [o for o in delivered if any(h.role == "relay" for h in o.hops)]
    latencies = [o.latency_s for o in outcomes]
    counters = federation._metrics.snapshot()["counters"]
    control = federation.control
    result = {
        "variant": variant,
        "iterations": iterations,
        "delivered_ratio": round(len(delivered) / iterations, 4),
        "degraded_ratio": round(len(degraded) / iterations, 4),
        "expired_ratio": round(
            sum(1 for o in outcomes if o.reason_code == "deadline-exceeded")
            / iterations,
            4,
        ),
        "dead_letter_ratio": round(
            sum(1 for o in outcomes if o.reason_code == "gateway-dead-letter")
            / iterations,
            4,
        ),
        "p50_sim_latency_s": round(percentile(latencies, 0.50), 4),
        "p99_sim_latency_s": round(percentile(latencies, 0.99), 4),
        "failovers": counters.get("env.federation.failover", 0),
    }
    if control is not None:
        result["control"] = {
            "applied": control.actions_applied,
            "reverted": control.actions_reverted,
            "suppressed": control.suppressed,
            "fully_reverted": control.fully_reverted(),
        }
    return result


def run_bench(
    iterations: int,
    quick: bool,
    down_s: float,
    brownout_start: float,
    brownout_s: float,
) -> dict:
    """All three variants against the same chaos; return the result blob."""
    results = {
        variant: run_variant(variant, iterations, down_s, brownout_start, brownout_s)
        for variant in VARIANTS
    }
    adaptive, resilient = results["adaptive"], results["resilient"]
    return {
        "bench": "control",
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "outage_s": down_s,
        "brownout": {
            "start": brownout_start,
            "duration_s": brownout_s,
            "loss": BROWNOUT_LOSS,
        },
        "deadline_s": DEADLINE_S,
        "variants": [results[variant] for variant in VARIANTS],
        "comparison": {
            "delivered_gain_vs_resilient": round(
                adaptive["delivered_ratio"] - resilient["delivered_ratio"], 4
            ),
            "p99_speedup_vs_resilient": round(
                resilient["p99_sim_latency_s"]
                / max(adaptive["p99_sim_latency_s"], 1e-9),
                2,
            ),
        },
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_control.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_control.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


#: sha256 of the smoke run's result as sorted-key JSON: retry, failover
#: and dead-letter timing all land in its ratios and latencies, so a
#: change that moves any of them fails here, not only in a reviewed diff
SMOKE_SHA256 = "da6243581a18869f4318fd07a3e8ff6e83affcf07585cd045a028b0cec3a7614"


def report(blob: dict) -> None:
    print(f"\nE15: adaptive control under seeded chaos ({blob['mode']} mode, "
          f"seed {blob['seed']}, deadline {blob['deadline_s']}s)")
    for variant in blob["variants"]:
        control = variant.get("control")
        extra = (
            f"  actions {control['applied']}/{control['reverted']} rev"
            if control
            else ""
        )
        print(f"  {variant['variant']:>10}: "
              f"delivered {variant['delivered_ratio'] * 100:5.1f}%  "
              f"expired {variant['expired_ratio'] * 100:5.1f}%  "
              f"p50 {variant['p50_sim_latency_s'] * 1000:7.1f} ms  "
              f"p99 {variant['p99_sim_latency_s'] * 1000:7.1f} ms  "
              f"failovers {variant['failovers']}{extra}")
    comparison = blob["comparison"]
    print(f"  adaptive vs resilient: "
          f"+{comparison['delivered_gain_vs_resilient'] * 100:.1f} points "
          f"delivered, p99 {comparison['p99_speedup_vs_resilient']:.2f}x faster")


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    if quick:
        iterations, down_s, brownout_start, brownout_s = 16, 4.0, 12.0, 6.0
    else:
        iterations, down_s, brownout_start, brownout_s = 64, 32.0, 56.0, 16.0
    blob = run_bench(
        iterations,
        quick,
        down_s=down_s,
        brownout_start=brownout_start,
        brownout_s=brownout_s,
    )
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    if not quick:
        reactive, resilient, adaptive = blob["variants"]
        # acceptance criterion: the control loop strictly dominates both
        # baselines on delivered ratio AND tail latency
        for baseline in (reactive, resilient):
            assert adaptive["delivered_ratio"] > baseline["delivered_ratio"], (
                f"adaptive delivered {adaptive['delivered_ratio']} does not "
                f"beat {baseline['variant']} {baseline['delivered_ratio']}"
            )
            assert adaptive["p99_sim_latency_s"] < baseline["p99_sim_latency_s"], (
                f"adaptive p99 {adaptive['p99_sim_latency_s']}s does not "
                f"beat {baseline['variant']} {baseline['p99_sim_latency_s']}s"
            )
        assert adaptive["control"]["applied"] > 0, "no control action fired"
        assert adaptive["control"]["fully_reverted"], (
            "control actions not fully reverted after recovery"
        )
        # determinism: the same seed replays to the identical result
        rerun = run_variant(
            "adaptive", iterations, down_s, brownout_start, brownout_s
        )
        assert rerun == adaptive, "adaptive variant is not deterministic"
        print("  PASS: adaptive strictly dominates both baselines; "
              "deterministic across reruns")
    return 0


def test_control_bench_smoke():
    """Pytest entry point: the variant machinery on a tiny workload."""
    blob = run_bench(12, quick=True, down_s=4.0, brownout_start=9.0, brownout_s=4.0)
    reactive, resilient, adaptive = blob["variants"]
    assert [v["variant"] for v in blob["variants"]] == list(VARIANTS)
    # every exchange is accounted for in each variant
    for variant in blob["variants"]:
        total = (
            variant["delivered_ratio"]
            + variant["expired_ratio"]
            + variant["dead_letter_ratio"]
        )
        assert total >= 0.99
    assert adaptive["delivered_ratio"] >= resilient["delivered_ratio"]
    assert adaptive["control"]["applied"] > 0
    # the same seed replays to the identical adaptive result
    assert run_variant("adaptive", 12, 4.0, 9.0, 4.0) == adaptive
    assert canonical_sha256(blob) == SMOKE_SHA256


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
