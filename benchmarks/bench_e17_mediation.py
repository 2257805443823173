"""E17 — mediated interoperation: O(N) converters, N·(N−1) reachable pairs.

The paper's trading-based openness argument, taken one step further than
the static common-form hub: applications *publish* conversion
capabilities (including direct and partial converters that bypass the
common form) on the ODP trader, and a mediator synthesizes multi-hop
conversion plans on demand.  This bench drives the full Figure-1
quadrant population through the mediator and asserts the four claims
PR 8 makes:

* **linear converters, quadratic reach** — N hub-bridged apps publish
  exactly 2N capabilities yet all N·(N−1) ordered pairs get plans; the
  pairwise baseline (``repro.baselines.closed``) needs N·(N−1) ad-hoc
  gateways for the same coverage;
* **multi-hop synthesis** — a fax-line app reaches the message system
  through a 4-hop plan (fax -> scan -> document -> common -> memo) no
  single converter covers, at the product of the partial fidelities;
* **fidelity negotiation** — a caller floor of 0.8 accepts the lossy
  plan as a negotiated downgrade; a floor of 0.95 fails structurally
  (``REASON_FIDELITY``), never silently delivering below floor;
* **keyed plan caching** — warm re-planning hits >= 0.9, and converter
  churn (withdraw + re-publish) evicts only dependent plans: the
  whole-cache invalidation counter stays at zero throughout.

The blob contains no wall-clock values, so two same-seed runs must be
byte-identical — asserted on every invocation.

Results are written to ``BENCH_mediation.json`` (in
``BENCH_METRICS_DIR`` when set, else the current directory).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e17_mediation.py [--smoke|--quick]
"""

from __future__ import annotations

import json
import os
import sys

from repro.apps.base import GroupwareApp
from repro.apps.conferencing import ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.meeting_room import MeetingRoom
from repro.apps.message_system import MessageSystem
from repro.apps.shared_editor import SharedEditor
from repro.apps.workflow import WorkflowSystem
from repro.baselines.closed import ClosedWorld
from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_FIDELITY,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.mediation import KIND_PARTIAL, MediationError, direct_capability
from repro.obs import MetricsRegistry
from repro.org.model import Organisation, Person
from repro.sim.world import World
from repro.util.errors import FidelityError

from bench_common import synthetic_converter

#: warm re-planning rounds over the full reachable matrix
WARM_ROUNDS = 3

FAX_DOC = {"fax-title": "signed offer", "fax-body": "terms attached"}
CONFERENCE_DOC = {"topic": "ODP", "entry": "will it help?", "author": "p0"}


class _SyntheticApp(GroupwareApp):
    """A hub-bridged app with a distinct synthetic format (scales N)."""

    quadrants = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]

    def __init__(self, index: int) -> None:
        super().__init__(f"syn{index}")
        self._converter = synthetic_converter(index)

    def converter(self):
        return self._converter


def _fax_descriptor() -> AppDescriptor:
    """A fax line: mediator-only format, partial converter to scans."""
    return AppDescriptor(
        name="faxline",
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="fax",
        capabilities=[
            direct_capability(
                "fax", "scan",
                lambda d: {"scan-title": d.get("fax-title", ""),
                           "scan-body": d.get("fax-body", "")},
                fidelity=0.95, kind=KIND_PARTIAL, exporter="faxline",
            )
        ],
    )


def _scan_descriptor() -> AppDescriptor:
    """A scan store: bridges scans into the document processor's format."""
    return AppDescriptor(
        name="scanstore",
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="scan",
        capabilities=[
            direct_capability(
                "scan", "document",
                lambda d: {"title": d.get("scan-title", ""),
                           "paragraphs": [d.get("scan-body", "")]},
                fidelity=0.9, kind=KIND_PARTIAL, exporter="scanstore",
            )
        ],
    )


def build_mediated_env(world: World, metrics: MetricsRegistry | None = None):
    env = CSCWEnvironment.builder().with_world(world).with_mediation()
    if metrics is not None:
        env = env.with_metrics(metrics)
    env = env.build()
    org = Organisation("upc", "UPC")
    org.add_person(Person("p0", "Person 0", "upc"))
    org.add_person(Person("p1", "Person 1", "upc"))
    env.knowledge_base.add_organisation(org)
    world.add_site("bcn", ["ws-p0", "ws-p1"])
    env.register_person(Communicator("p0", "ws-p0"))
    env.register_person(Communicator("p1", "ws-p1"))
    return env


def quadrant_apps(world: World, smoke: bool) -> list[GroupwareApp]:
    """Stock apps covering every Figure-1 quadrant (2 in smoke mode)."""
    if smoke:
        return [MessageSystem(), DocumentProcessor()]
    return [
        ConferencingSystem(),     # different-time/different-place
        MessageSystem(),          # different-time/different-place
        WorkflowSystem(),         # different-time/{same,different}-place
        DocumentProcessor(),      # different-time/same-place
        SharedEditor(world),      # same-time/different-place
        MeetingRoom(world),       # same-time/same-place
    ]


def run_matrix(smoke: bool) -> dict:
    """The quadrant-population matrix: plans, delivery, negotiation, churn."""
    world = World(seed=17)
    metrics = MetricsRegistry()
    env = build_mediated_env(world, metrics)
    apps = quadrant_apps(world, smoke)
    for app in apps:
        app.attach(env, exporter_org="upc")
    message_system = next(app for app in apps if app.name == "message-system")
    env.register_application(_fax_descriptor(), lambda person, doc, info: None)
    env.register_application(_scan_descriptor(), lambda person, doc, info: None)
    mediator = env.mediator
    formats = sorted(
        env.applications.descriptor(name).format_name
        for name in env.applications.names()
    )

    # -- plan matrix ------------------------------------------------------
    matrix: dict[str, dict[str, float]] = {}
    planned = unreachable = 0
    for source in formats:
        row: dict[str, float] = {}
        for target in formats:
            if source == target:
                continue
            try:
                plan = mediator.plan(source, target)
            except MediationError:
                unreachable += 1
                continue
            row[target] = round(plan.fidelity, 4)
            planned += 1
        matrix[source] = row
    hub_formats = [f for f in formats if f not in ("fax", "scan")]
    n_hub = len(hub_formats)
    # every hub-bridged pair plans; only the chain apps' inbound legs
    # (nothing converts INTO a fax) are unreachable
    assert planned >= n_hub * (n_hub - 1), (planned, n_hub)
    assert mediator.reachable_pairs() == planned

    # -- multi-hop synthesis ----------------------------------------------
    multi_hop = mediator.plan("fax", "memo")
    assert multi_hop.hops >= 3, multi_hop
    assert multi_hop.path == ("fax", "scan", "document", "common", "memo")
    assert abs(multi_hop.fidelity - 0.95 * 0.9) < 1e-9

    outcome = env.exchange(ExchangeRequest(
        "p0", "p1", "faxline", "message-system", FAX_DOC, min_fidelity=0.8
    ))
    assert outcome.delivered and outcome.translated, outcome
    assert abs(outcome.fidelity - multi_hop.fidelity) < 1e-9, outcome
    assert message_system.folder("p1")[-1].subject == FAX_DOC["fax-title"]

    # -- fidelity negotiation ---------------------------------------------
    rejected = env.exchange(ExchangeRequest(
        "p0", "p1", "faxline", "message-system", FAX_DOC, min_fidelity=0.9
    ))
    assert not rejected.delivered
    assert rejected.reason_code == REASON_FIDELITY
    try:
        mediator.negotiate("fax", "memo", min_fidelity=0.9)
        raise AssertionError("floor 0.9 must reject the 0.855 plan")
    except FidelityError as error:
        assert abs(error.best_fidelity - 0.855) < 1e-9
    downgrades = mediator.negotiated_downgrades
    rejections = mediator.fidelity_rejections
    assert downgrades >= 1 and rejections >= 1

    if not smoke:
        # both formats in the static hub, hub fidelity 0.9 (lossy form
        # converter): floor 0.8 delivers the downgrade, floor 0.95 fails
        accepted = env.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "workflow", CONFERENCE_DOC,
            min_fidelity=0.8,
        ))
        assert accepted.delivered and abs(accepted.fidelity - 0.9) < 1e-9
        refused = env.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "workflow", CONFERENCE_DOC,
            min_fidelity=0.95,
        ))
        assert not refused.delivered
        assert refused.reason_code == REASON_FIDELITY

    # -- warm plan-cache hit rate -----------------------------------------
    pairs = [(s, t) for s, row in matrix.items() for t in row]
    hits_before = mediator.plan_hits
    lookups = 0
    for _ in range(WARM_ROUNDS):
        for source, target in pairs:
            mediator.plan(source, target)
            lookups += 1
    warm_hit_rate = (mediator.plan_hits - hits_before) / lookups
    assert warm_hit_rate >= 0.9, warm_hit_rate

    # -- churn: keyed eviction, never a whole-cache drop -------------------
    stats_before = mediator.stats()
    cached_before = stats_before["plans_cached"]
    withdrawn = "partial:scan->document"
    dependents = {
        (s, t) for s, t in pairs if withdrawn in mediator.plan(s, t).steps
    }
    mediator.withdraw(withdrawn)
    after_withdraw = mediator.stats()
    churn_evictions = after_withdraw["plan_evictions"] - stats_before["plan_evictions"]
    # exactly the plans routing through the withdrawn hop went, no more
    assert churn_evictions == len(dependents), (churn_evictions, dependents)
    assert after_withdraw["plans_cached"] == cached_before - len(dependents)
    # the surviving plans still hit
    survivor_hits = mediator.plan_hits
    for source, target in pairs:
        if (source, target) not in dependents:
            mediator.plan(source, target)
    assert mediator.plan_hits - survivor_hits == len(pairs) - len(dependents)

    mediator.publish(_scan_descriptor().capabilities[0])
    restored = mediator.plan("fax", "memo")
    assert restored.path == multi_hop.path
    final = mediator.stats()
    assert final["whole_cache_invalidations"] == 0, final

    snapshot = metrics.snapshot()
    return {
        "apps": {
            name: {
                "format": env.applications.descriptor(name).format_name,
                "quadrants": sorted(env.applications.descriptor(name).quadrants),
            }
            for name in env.applications.names()
        },
        "formats": formats,
        "fidelity_matrix": matrix,
        "planned_pairs": planned,
        "unreachable_pairs": unreachable,
        "multi_hop": {
            "path": list(multi_hop.path),
            "hops": multi_hop.hops,
            "fidelity": round(multi_hop.fidelity, 4),
        },
        "negotiation": {
            "downgrades": downgrades,
            "rejections": rejections,
        },
        "warm_hit_rate": round(warm_hit_rate, 4),
        "churn": {
            "withdrawn": withdrawn,
            "evictions": churn_evictions,
            "dependent_plans": len(dependents),
            "whole_cache_invalidations": final["whole_cache_invalidations"],
        },
        "mediator_stats": final,
        "fidelity_histogram": snapshot.get("histograms", {}).get(
            "mediation.fidelity"
        ),
        "plan_counters": {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith("mediation.")
        },
    }


def run_scaling(sweep: list[int]) -> list[dict]:
    """Mediated O(N) capabilities vs pairwise O(N^2) gateways."""
    rows = []
    for n in sweep:
        world = World(seed=23)
        env = build_mediated_env(world)
        for index in range(n):
            _SyntheticApp(index).attach(env, exporter_org="upc")
        mediator = env.mediator
        assert mediator.capability_count() == 2 * n
        assert mediator.reachable_pairs() == n * (n - 1)
        for i in range(n):
            for j in range(n):
                if i != j:
                    mediator.plan(f"fmt{i}", f"fmt{j}")
        assert mediator.stats()["plans_cached"] >= n * (n - 1)

        closed = ClosedWorld()
        for index in range(n):
            closed.add_app(_SyntheticApp(index))
        gateways = closed.build_all_gateways()
        assert gateways == n * (n - 1)
        rows.append({
            "apps": n,
            "mediated_capabilities": 2 * n,
            "pairwise_gateways": gateways,
            "reachable_pairs": n * (n - 1),
            "capability_advantage": round(gateways / (2 * n), 2),
        })
    return rows


def run_bench(mode: str) -> dict:
    smoke = mode == "smoke"
    sweep = {"smoke": [4], "quick": [4, 8, 16]}.get(mode, [4, 8, 16, 32])
    return {
        "bench": "mediation",
        "mode": mode,
        "matrix": run_matrix(smoke),
        "scaling": run_scaling(sweep),
    }


def emit(blob: dict) -> str:
    directory = os.environ.get("BENCH_METRICS_DIR") or "."
    path = os.path.join(directory, "BENCH_mediation.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def report(blob: dict) -> None:
    matrix = blob["matrix"]
    print(f"\nE17: mediated interoperation ({blob['mode']})")
    print(f"  formats: {', '.join(matrix['formats'])}")
    print(f"  planned pairs: {matrix['planned_pairs']} "
          f"(+{matrix['unreachable_pairs']} unreachable chain legs)")
    hop = matrix["multi_hop"]
    print(f"  multi-hop: {' -> '.join(hop['path'])} "
          f"({hop['hops']} hops, fidelity {hop['fidelity']})")
    print(f"  negotiation: {matrix['negotiation']['downgrades']} downgrades, "
          f"{matrix['negotiation']['rejections']} rejections")
    print(f"  warm plan-cache hit rate: {matrix['warm_hit_rate']}")
    churn = matrix["churn"]
    print(f"  churn: withdrew {churn['withdrawn']} -> {churn['evictions']} keyed "
          f"evictions ({churn['whole_cache_invalidations']} whole-cache drops)")
    print(f"  {'apps':>6}  {'capabilities':>12}  {'gateways':>9}  {'advantage':>9}")
    for row in blob["scaling"]:
        print(f"  {row['apps']:>6}  {row['mediated_capabilities']:>12}  "
              f"{row['pairwise_gateways']:>9}  {row['capability_advantage']:>8}x")


def main(argv: list[str]) -> int:
    if "--smoke" in argv:
        mode = "smoke"
    elif "--quick" in argv:
        mode = "quick"
    else:
        mode = "full"
    blob = run_bench(mode)
    rerun = run_bench(mode)
    assert blob == rerun, "same-seed reruns must produce identical blobs"
    report(blob)
    path = emit(blob)
    print(f"  wrote {path}")
    print("  PASS: O(N) capabilities for N(N-1) pairs; multi-hop plan; "
          "negotiated downgrade; warm hits >= 0.9; zero whole-cache drops")
    return 0


def test_mediation_bench_smoke():
    """Pytest entry point: smoke matrix + one sweep point, determinism."""
    blob = run_bench("smoke")
    assert blob == run_bench("smoke")
    matrix = blob["matrix"]
    assert matrix["multi_hop"]["hops"] >= 3
    assert matrix["warm_hit_rate"] >= 0.9
    assert matrix["churn"]["whole_cache_invalidations"] == 0
    assert blob["scaling"][0]["pairwise_gateways"] == 12


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
