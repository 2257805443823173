"""E16 — sharded directory/KB at scale: keyed invalidation under churn.

ISSUE 7's storm: BENCH_exchange recorded 2,306 cache invalidations for
101 exchanges because every KB mutation dropped the whole route cache.
This bench sweeps a seeded synthetic population 10^3 -> 10^5 through a
sharded environment (``with_sharding``: consistent-hashed org subtrees
across N DSAs, O(1) person->org resolution) and drives a mutation storm
against a warm cache, asserting the two scale properties the fix claims:

* **invalidations are O(1) in affected keys** — a mutation evicts only
  the routes touching the mutated entity (<= 2 here), independent of
  population size and of how many routes are cached; unrelated churn
  evicts nothing;
* **warm exchange latency is sub-linear in population** — the per-user
  cost of the shared mediator must not grow with registered users (the
  base KB's linear ``find_person`` scan made cold resolution O(people)).

Each sweep point reports install throughput, warm exchange latency,
evictions per mutation, the storm the old whole-cache behaviour would
have caused (mutations x cached routes), per-shard balance, and proof
that person resolution touched exactly one owning shard.

Results are written to ``BENCH_shard.json`` (in ``BENCH_METRICS_DIR``
when set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e12_shard.py [--smoke|--quick]

``--quick`` (used by ``scripts/check.sh``) sweeps small populations with
the structural assertions intact; ``--smoke`` runs one tiny point.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.obs import MetricsRegistry
from repro.org.model import Person
from repro.sim.world import World
from repro.workload import PopulationGenerator, PopulationSpec

from bench_common import synthetic_converter

#: DSA shards per environment
N_SHARDS = 8
#: distinct warm routes held in the cache during the storm
PAIRS = 32
#: KB mutations fired against the warm cache per sweep point
MUTATIONS = 64
#: every k-th mutation moves a route participant (the only mutations
#: that *should* evict anything: their <= 2 cached routes)
PARTICIPANT_EVERY = 8


def build_point(population: int, organisations: int, seed: int = 11):
    """One sharded environment with its installed synthetic population."""
    world = World(seed=seed)
    env = (
        CSCWEnvironment.builder()
        .with_world(world)
        .with_name("shardbench")
        .with_metrics(MetricsRegistry())
        .with_sharding(N_SHARDS)
        .build()
    )
    spec = PopulationSpec(
        people=population,
        organisations=organisations,
        seed=seed,
        # all-pairs-open window covering every org the sampled routes and
        # participant moves can touch (constant, not O(orgs^2))
        open_policy_orgs=min(organisations, PAIRS + 2),
    )
    generator = PopulationGenerator(spec)
    start = time.perf_counter()
    report = generator.install(env)
    install_s = time.perf_counter() - start
    env.applications.register(
        AppDescriptor(name="producer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=synthetic_converter(0)),
        lambda person, document, info: None,
    )
    env.applications.register(
        AppDescriptor(name="consumer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=synthetic_converter(1)),
        lambda person, document, info: None,
    )
    return env, generator, report, install_s


def run_point(population: int, warm_iterations: int) -> dict:
    """Measure one population size; return its sweep row."""
    # PAIRS + 2 organisations make the PAIRS sampled pairs distinct
    # routes (sample_pairs cycles after min(people, organisations)) and
    # match the open-policy window build_point already assumes
    organisations = max(N_SHARDS, PAIRS + 2, population // 100)
    env, generator, report, install_s = build_point(population, organisations)
    kb = env.knowledge_base
    document = {"fmt0-title": "minutes", "fmt0-body": "we met"}
    pairs = generator.sample_pairs(PAIRS)

    # -- owning-shard resolution: one read, one DSA ----------------------
    reads_before = dict(kb.directory.reads_by_shard)
    entry = kb.resolve_person_entry(pairs[0][0])
    reads_after = dict(kb.directory.reads_by_shard)
    touched = [
        shard for shard, count in reads_after.items()
        if count != reads_before[shard]
    ]
    assert len(touched) == 1, f"person read touched {touched}"
    assert touched[0] == kb.shard_of_person(pairs[0][0])
    assert entry.first("cn") == pairs[0][0]

    # -- prime the warm routes -------------------------------------------
    delivered = 0
    for sender, receiver in pairs:
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", document
        ))
        assert outcome.delivered, outcome
        delivered += 1

    # -- warm path timing -------------------------------------------------
    start = time.perf_counter()
    for index in range(warm_iterations):
        sender, receiver = pairs[index % PAIRS]
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", document
        ))
        delivered += outcome.delivered
    warm_s = time.perf_counter() - start
    assert delivered == PAIRS + warm_iterations, "warm exchanges must all deliver"

    # -- mutation storm against the warm cache ----------------------------
    stats_before = env.resolution.stats()
    routes_before = stats_before["routes_cached"]
    bound = min(population, organisations)
    participant_moves = 0
    for index in range(MUTATIONS):
        if index % PARTICIPANT_EVERY == 0:
            # a route participant changes org: their <= 2 routes must go
            mover = f"u{(participant_moves + 1) % bound}"
            target_org = f"org{(participant_moves + 2) % min(bound, PAIRS + 2)}"
            if kb.organisation_of(mover) != target_org:
                kb.move_person(mover, target_org)
                participant_moves += 1
        elif index % 2 == 0:
            # unrelated hire: must evict nothing
            kb.add_person(
                Person(f"hire{index}", f"Hire {index}", f"org{index % organisations}")
            )
        else:
            # unrelated bystander churn: must evict nothing
            bystander = f"u{bound + (index % max(1, population - bound))}"
            if population > bound:
                kb.move_person(bystander, f"org{(index + 1) % organisations}")
    stats_after = env.resolution.stats()
    evicted = stats_after["evictions"] - stats_before["evictions"]
    events = stats_after["invalidations"] - stats_before["invalidations"]
    routes_surviving = stats_after["routes_cached"]

    # keyed invalidation: only participant moves evict, <= 2 routes each
    assert evicted <= 2 * participant_moves, (
        f"{evicted} evictions for {participant_moves} participant moves"
    )
    assert events <= participant_moves, (
        f"{events} invalidation events for {participant_moves} participant moves"
    )
    # the warm cache survives the storm (old behaviour: wiped 64 times)
    assert routes_surviving >= routes_before - 2 * participant_moves

    # exchanges still deliver after the storm (routes re-resolve cleanly)
    for sender, receiver in pairs:
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", document
        ))
        assert outcome.delivered, outcome

    warm_us = warm_s / warm_iterations * 1e6
    return {
        "population": population,
        "organisations": organisations,
        "shards": N_SHARDS,
        "install_s": round(install_s, 3),
        "install_persons_per_s": round(population / install_s, 0),
        "warm_us_per_exchange": round(warm_us, 2),
        "warm_eps": round(warm_iterations / warm_s, 0),
        "mutations": MUTATIONS,
        "participant_moves": participant_moves,
        "evictions": evicted,
        "evictions_per_mutation": round(evicted / MUTATIONS, 3),
        "invalidation_events": events,
        "routes_cached_before_storm": routes_before,
        "routes_surviving_storm": routes_surviving,
        "old_behaviour_would_evict": MUTATIONS * routes_before,
        "shard_balance_max_over_mean": round(report.shard_balance, 2),
        "shard_entries": report.shard_entries,
    }


def run_bench(populations: list[int], warm_iterations: int, mode: str) -> dict:
    sweep = [run_point(population, warm_iterations) for population in populations]
    blob = {
        "bench": "shard",
        "mode": mode,
        "warm_iterations": warm_iterations,
        "pairs": PAIRS,
        "sweep": sweep,
    }
    if len(sweep) >= 2:
        smallest, largest = sweep[0], sweep[-1]
        growth = largest["population"] / smallest["population"]
        latency_ratio = (
            largest["warm_us_per_exchange"] / smallest["warm_us_per_exchange"]
        )
        blob["population_growth"] = round(growth, 1)
        blob["warm_latency_ratio"] = round(latency_ratio, 2)
        # sub-linear: latency may wobble with cache pressure but must not
        # track population (growth is 10-100x across the sweep)
        assert latency_ratio < growth / 2, (
            f"warm latency grew {latency_ratio:.2f}x over a {growth:.0f}x "
            "population sweep — not sub-linear"
        )
        # O(1) in affected keys: evictions per mutation must not grow
        # with population (same constant bound at every sweep point)
        per_mutation = [row["evictions_per_mutation"] for row in sweep]
        assert max(per_mutation) <= 0.5, per_mutation
        assert max(per_mutation) <= per_mutation[0] + 0.2, per_mutation
    return blob


def emit(blob: dict) -> str:
    """Write ``BENCH_shard.json``; return the path."""
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_shard.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    print(f"\nE16: sharded KB/directory sweep ({blob['mode']}, "
          f"{N_SHARDS} shards, {blob['pairs']} warm routes, "
          f"{MUTATIONS} mutations per point)")
    print(f"  {'population':>10}  {'orgs':>6}  {'install/s':>10}  "
          f"{'warm µs':>8}  {'evict/mut':>9}  {'storm avoided':>13}  {'balance':>7}")
    for row in blob["sweep"]:
        print(f"  {row['population']:>10}  {row['organisations']:>6}  "
              f"{row['install_persons_per_s']:>10.0f}  "
              f"{row['warm_us_per_exchange']:>8.2f}  "
              f"{row['evictions_per_mutation']:>9.3f}  "
              f"{row['old_behaviour_would_evict']:>13}  "
              f"{row['shard_balance_max_over_mean']:>7.2f}")
    if "warm_latency_ratio" in blob:
        print(f"  latency {blob['warm_latency_ratio']}x over a "
              f"{blob['population_growth']}x population sweep (sub-linear)")


def main(argv: list[str]) -> int:
    if "--smoke" in argv:
        populations, warm_iterations, mode = [300], 100, "smoke"
    elif "--quick" in argv:
        populations, warm_iterations, mode = [500, 5000], 400, "quick"
    else:
        populations, warm_iterations, mode = [1000, 10000, 100000], 2000, "full"
    blob = run_bench(populations, warm_iterations, mode)
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    print("  PASS: keyed eviction O(1) in affected keys; warm latency sub-linear")
    return 0


def test_shard_bench_smoke():
    """Pytest entry point: one tiny sweep point, structure asserted."""
    blob = run_bench([300], 100, "smoke")
    row = blob["sweep"][0]
    assert row["evictions_per_mutation"] <= 0.5
    assert row["routes_surviving_storm"] >= PAIRS - 2 * row["participant_moves"]
    assert row["old_behaviour_would_evict"] >= 50 * row["evictions"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
