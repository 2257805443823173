"""E12 — federation: intra- vs cross-domain exchange, 1..8 domains.

The paper's openness argument is inter-organisational: environments in
different administrative domains must interoperate through explicit
boundaries.  This bench checks what crossing that boundary does.  For
each domain count (1, 2, 4, 8) it builds a
:class:`repro.federation.Federation` on one sim engine, homes a small
population in every domain, and pushes the same document stream four
ways:

* **intra** — sender and receiver share a home domain: per-request
  ``federated_exchange`` calls running the local pipeline, no gateway;
* **intra batch** — the same stream through ``federated_exchange_many``
  (the home env's batched pipeline, one call per run);
* **cross (per-request)** — receiver lives in the next domain over:
  origin-side checks, one gateway relay over a WAN link per exchange,
  the full local pipeline at the target, and the reply hop back;
* **cross (fast path)** — the same cross-domain stream through
  ``federated_exchange_many``: consecutive same-route requests ship as
  **one** batched gateway relay per run.

Asserted at every domain count: batched and per-request outcomes are
field-identical, the fast path makes exactly one relay per (pair, run)
and exactly **2** ``env.federation.home.hit`` lookups per request (one
per endpoint), and each relay pays simulated WAN latency on both hops.
The wall cost of the per-request and batched cross-domain paths is
measured by the benchmark harness (``benchmarks/harness``:
``federated_request`` vs ``federated_digest``), not here.  Results land
in ``BENCH_federation.json`` (in ``BENCH_METRICS_DIR`` when set, else
the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e12_federation.py [--quick]

``--quick`` (``--smoke`` is accepted as an alias) runs a small workload
over 1 and 2 domains only.
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
from repro.sim.world import World

#: people homed in each domain
PEOPLE_PER_DOMAIN = 4

DOCUMENT = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def outcome_fields(outcome) -> dict:
    """An ``ExchangeOutcome``'s fields minus the per-span trace id."""
    return {name: value for name, value in outcome._asdict().items() if name != "trace_id"}


def build_federation(n_domains: int) -> Federation:
    """A federation of *n_domains* with apps registered everywhere."""
    world = World(seed=7)
    assignment = {
        f"d{index}": [f"d{index}-p{p}" for p in range(PEOPLE_PER_DOMAIN)]
        for index in range(n_domains)
    }
    federation = Federation.partition(
        world, assignment, metrics=MetricsRegistry()
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
    return federation


def run_sweep(n_domains: int, iterations: int) -> dict:
    """Run intra- and cross-domain exchange, per-request and batched."""
    federation = build_federation(n_domains)

    def request(sender: str, receiver: str) -> ExchangeRequest:
        return ExchangeRequest(sender, receiver, "app0", "app1", DOCUMENT)

    def counter(name: str) -> int:
        return federation._metrics.snapshot()["counters"].get(name, 0)

    def relay_count() -> int:
        return sum(
            domain.gateway_to(peer.name).stats()["relays"]
            for domain in federation.domains()
            for peer in federation.domains()
            if peer.name in domain.gateways
        )

    # warm every path once (route caches, metric handles)
    federation.federated_exchange(request("d0-p0", "d0-p1"))
    if n_domains > 1:
        federation.federated_exchange(request("d0-p0", "d1-p1"))
        federation.federated_exchange_many(
            [request("d0-p0", "d1-p1"), request("d0-p0", "d1-p1")]
        )

    # -- intra: both parties in domain 0, per request and batched ---------
    intra_outcomes = [
        federation.federated_exchange(request("d0-p0", "d0-p1"))
        for _ in range(iterations)
    ]
    assert all(outcome.delivered for outcome in intra_outcomes)
    intra_batch = federation.federated_exchange_many(
        [request("d0-p0", "d0-p1") for _ in range(iterations)]
    )
    assert [outcome_fields(o.outcome) for o in intra_batch] == [
        outcome_fields(o.outcome) for o in intra_outcomes
    ], "batched intra outcomes drifted from the per-request path"

    sweep = {"domains": n_domains, "iterations": iterations}
    if n_domains == 1:
        return sweep

    # -- cross, per-request: sender in domain i, receiver in (i+1) % n ----
    pairs = [
        (f"d{index}-p0", f"d{(index + 1) % n_domains}-p1")
        for index in range(n_domains)
    ]
    cross_seq_outcomes = [
        federation.federated_exchange(request(*pairs[i % len(pairs)]))
        for i in range(iterations)
    ]
    assert all(outcome.delivered for outcome in cross_seq_outcomes)
    assert all(outcome.cross_domain for outcome in cross_seq_outcomes)

    forward_hops = []
    return_hops = []
    for outcome in cross_seq_outcomes:
        origin, deliver, reply = outcome.hops
        forward_hops.append(deliver.time - origin.time)
        return_hops.append(reply.time - deliver.time)

    # -- cross, fast path: same-route runs batched into single relays -----
    per_pair = max(1, iterations // len(pairs))
    batch_requests = [
        request(sender, receiver)
        for sender, receiver in pairs
        for _ in range(per_pair)
    ]
    batch_total = len(batch_requests)
    relays_before = relay_count()
    hits_before = counter("env.federation.home.hit")
    cross_batch = federation.federated_exchange_many(batch_requests)
    batch_relays = relay_count() - relays_before
    batch_hits = counter("env.federation.home.hit") - hits_before
    assert all(outcome.delivered for outcome in cross_batch)
    assert all(outcome.cross_domain for outcome in cross_batch)
    # one batched relay per (pair, run), and exactly two home lookups per
    # request (one per endpoint — no re-resolution inside the dispatch)
    assert batch_relays == len(pairs), (
        f"expected {len(pairs)} batched relays, saw {batch_relays}"
    )
    assert batch_hits == 2 * batch_total, (
        f"expected {2 * batch_total} home-cache hits for {batch_total} "
        f"batched requests, saw {batch_hits}"
    )
    # field parity: the fast path must decide every exchange exactly as
    # the per-request path does (same reasons, fidelity, sizes, routing)
    for j, outcome in enumerate(cross_batch):
        expected = cross_seq_outcomes[j // per_pair]
        assert outcome_fields(outcome.outcome) == outcome_fields(expected.outcome)
        assert (outcome.origin, outcome.target) == (expected.origin, expected.target)

    sweep.update(
        {
            "cross_sim_latency_s": round(
                sum(o.latency_s for o in cross_seq_outcomes) / iterations, 4
            ),
            "cross_batch_sim_latency_s": round(
                sum(o.latency_s for o in cross_batch) / batch_total, 4
            ),
            "forward_hop_s": round(sum(forward_hops) / len(forward_hops), 4),
            "return_hop_s": round(sum(return_hops) / len(return_hops), 4),
            "gateway_relays": relay_count(),
            "cross_batch_relays": batch_relays,
            "home_hits_per_batch_request": round(batch_hits / batch_total, 2),
        }
    )
    counters = federation._metrics.snapshot()["counters"]
    sweep["federation_counters"] = {
        key: counters[key]
        for key in sorted(counters)
        if key.startswith(("env.federation.", "gateway."))
    }
    return sweep


#: sha256 of the smoke run's result as sorted-key JSON: hop latencies,
#: relay counts and the federation's counters are all simulated, so a
#: change that moves any of them fails here, not only in a reviewed diff
SMOKE_SHA256 = "76e40aee9aaee2881d09da593cdd36097c3bae320f65180ecafe34d09e710ba0"


def run_bench(domain_counts: list[int], iterations: int, quick: bool) -> dict:
    """Run all sweeps; return the result blob."""
    sweeps = [run_sweep(n, iterations) for n in domain_counts]
    return {
        "bench": "federation",
        "mode": "quick" if quick else "full",
        "people_per_domain": PEOPLE_PER_DOMAIN,
        "sweeps": sweeps,
    }


def emit(blob: dict) -> str:
    """Write ``BENCH_federation.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_federation.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print(f"\nE12: federated exchange ({blob['mode']} mode, "
          f"{blob['people_per_domain']} people/domain)")
    for sweep in blob["sweeps"]:
        line = f"  {sweep['domains']} domain(s): intra delivered"
        if "cross_batch_relays" in sweep:
            line += (f"; cross {sweep['cross_batch_relays']} batched relays, "
                     f"{sweep['home_hits_per_batch_request']} home hits/request, "
                     f"sim RTT {sweep['cross_sim_latency_s'] * 1000:.1f} ms = "
                     f"{sweep['forward_hop_s'] * 1000:.1f} fwd + "
                     f"{sweep['return_hop_s'] * 1000:.1f} ret")
        print(line)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv or "--smoke" in argv
    domain_counts = [1, 2] if quick else [1, 2, 4, 8]
    blob = run_bench(domain_counts, 48 if quick else 240, quick)
    report(blob)
    print(f"  wrote {emit(blob)}")
    # the boundary is paid in simulated WAN latency on every relay
    for sweep in blob["sweeps"][1:]:
        assert sweep["cross_sim_latency_s"] > 0.1, (
            f"{sweep['domains']}-domain cross sim RTT "
            f"{sweep['cross_sim_latency_s']}s looks free"
        )
    print("  PASS: one relay per run, 2 home hits per request, "
          "field parity, relay pays sim latency")
    return 0


def test_federation_bench_smoke():
    """Pytest entry point: the sweep machinery on a tiny workload."""
    blob = run_bench([1, 2], 6, quick=True)
    assert [s["domains"] for s in blob["sweeps"]] == [1, 2]
    two = blob["sweeps"][1]
    assert two["forward_hop_s"] > 0 and two["return_hop_s"] > 0
    # 6 per-request relays + one batched relay per pair (2 pairs) + the
    # 2 warmup relays (one per-request, one batched run of 2)
    assert two["gateway_relays"] == 10
    assert two["cross_batch_relays"] == 2
    # remote = 6 per-request + 6 batched + 3 warmup cross exchanges
    assert two["federation_counters"]["env.federation.remote"] == 15
    assert two["home_hits_per_batch_request"] == 2.0
    assert canonical_sha256(blob) == SMOKE_SHA256


def test_federation_bench_rerun_determinism():
    """Same seed, same workload: simulated results are bit-identical."""
    keys = (
        "cross_sim_latency_s", "cross_batch_sim_latency_s",
        "forward_hop_s", "return_hop_s", "gateway_relays",
        "cross_batch_relays", "home_hits_per_batch_request",
        "federation_counters",
    )
    first, second = (run_sweep(2, 6) for _ in range(2))
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
