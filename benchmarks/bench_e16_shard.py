"""E16 — sharded directory/KB at scale: keyed invalidation under churn.

The storm this pins: BENCH_exchange once recorded 2,306 cache
invalidations for 101 exchanges because every KB mutation dropped the
whole route cache.  This bench sweeps a seeded synthetic population
10^3 -> 10^5 through a sharded environment (``with_sharding``:
consistent-hashed org subtrees across N DSAs, O(1) person->org
resolution) and drives a mutation storm against a warm cache, asserting
the scale properties the fix claims:

* **person events evict nothing** — the cache memoises only
  organisation-pair verdicts and reads each person's organisation from
  the knowledge base's index, so a route participant's move, a hire and
  a bystander move all leave every verdict in place, at every
  population size;
* **warm exchanges never touch the directory** — at every population
  point the warm loop makes 0 directory reads and 0 route misses, so no
  O(population) term is left on the hot path;
* **person resolution reads one shard** — the owning DSA, and no other.

Each sweep point reports evictions per mutation, the storm the old
whole-cache behaviour would have caused (mutations x cached verdicts),
per-shard balance, and the warm loop's directory reads and route
hits/misses.  The wall cost of a warm exchange over a sharded,
mediated environment is measured by the benchmark harness
(``benchmarks/harness``: ``local_request`` ``exchanges_per_s``), not
here.

Results are written to ``BENCH_shard.json`` (in ``BENCH_METRICS_DIR``
when set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e16_shard.py [--smoke|--quick]

``--quick`` sweeps small populations; ``--smoke`` runs one tiny point.
"""

from __future__ import annotations

import json
import os
import sys

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
#: every k-th mutation moves a route participant (whose next exchange
#: reads the new organisation from the index, with nothing evicted)
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
    report = generator.install(env)
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
    return env, generator, report


def run_point(population: int, warm_iterations: int) -> dict:
    """Measure one population size; return its sweep row."""
    # PAIRS + 2 organisations make the PAIRS sampled pairs distinct
    # routes (sample_pairs cycles after min(people, organisations)) and
    # match the open-policy window build_point already assumes
    organisations = max(N_SHARDS, PAIRS + 2, population // 100)
    env, generator, report = build_point(population, organisations)
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

    # -- warm path: no directory reads, no route misses -------------------
    reads_before = sum(kb.directory.reads_by_shard.values())
    warm_before = env.resolution.stats()
    for index in range(warm_iterations):
        sender, receiver = pairs[index % PAIRS]
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", document
        ))
        delivered += outcome.delivered
    assert delivered == PAIRS + warm_iterations, "warm exchanges must all deliver"
    warm_reads = sum(kb.directory.reads_by_shard.values()) - reads_before
    warm_after = env.resolution.stats()
    warm_hits = warm_after["route_hits"] - warm_before["route_hits"]
    warm_misses = warm_after["route_misses"] - warm_before["route_misses"]
    assert warm_reads == 0, f"{warm_reads} directory reads on the warm path"
    assert (warm_hits, warm_misses) == (warm_iterations, 0), (warm_hits, warm_misses)

    # -- mutation storm against the warm cache ----------------------------
    stats_before = env.resolution.stats()
    verdicts_before = stats_before["verdicts_cached"]
    bound = min(population, organisations)
    participant_moves = 0
    for index in range(MUTATIONS):
        if index % PARTICIPANT_EVERY == 0:
            # a route participant changes org: must evict nothing
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
    verdicts_surviving = stats_after["verdicts_cached"]

    # keyed invalidation: no person event evicts anything, so the warm
    # cache survives the storm whole (old behaviour: wiped 64 times)
    assert (evicted, events) == (0, 0), (
        f"{evicted} evictions in {events} events for {participant_moves} participant moves"
    )
    assert verdicts_surviving == verdicts_before

    # exchanges still deliver after the storm (routes re-resolve cleanly)
    for sender, receiver in pairs:
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, "producer", "consumer", document
        ))
        assert outcome.delivered, outcome

    return {
        "population": population,
        "organisations": organisations,
        "shards": N_SHARDS,
        "warm_directory_reads": warm_reads,
        "warm_route_hits": warm_hits,
        "warm_route_misses": warm_misses,
        "mutations": MUTATIONS,
        "participant_moves": participant_moves,
        "evictions": evicted,
        "evictions_per_mutation": round(evicted / MUTATIONS, 3),
        "invalidation_events": events,
        "verdicts_cached_before_storm": verdicts_before,
        "verdicts_surviving_storm": verdicts_surviving,
        "old_behaviour_would_evict": MUTATIONS * verdicts_before,
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
    # no person event evicts, at any population size
    per_mutation = [row["evictions_per_mutation"] for row in sweep]
    assert max(per_mutation) == 0, per_mutation
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
    print(f"  {'population':>10}  {'orgs':>6}  {'warm reads':>10}  "
          f"{'warm hit/miss':>13}  {'evict/mut':>9}  {'storm avoided':>13}  "
          f"{'balance':>7}")
    for row in blob["sweep"]:
        hits = f"{row['warm_route_hits']}/{row['warm_route_misses']}"
        print(f"  {row['population']:>10}  {row['organisations']:>6}  "
              f"{row['warm_directory_reads']:>10}  {hits:>13}  "
              f"{row['evictions_per_mutation']:>9.3f}  "
              f"{row['old_behaviour_would_evict']:>13}  "
              f"{row['shard_balance_max_over_mean']:>7.2f}")


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
    print("  PASS: person events evict nothing; warm path reads no "
          "directory entry at any population")
    return 0


def test_shard_bench_smoke():
    """Pytest entry point: one tiny sweep point, structure asserted."""
    blob = run_bench([300], 100, "smoke")
    row = blob["sweep"][0]
    assert row["participant_moves"] > 0
    assert (row["evictions"], row["invalidation_events"]) == (0, 0)
    assert row["verdicts_surviving_storm"] == row["verdicts_cached_before_storm"]
    assert row["old_behaviour_would_evict"] > 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
