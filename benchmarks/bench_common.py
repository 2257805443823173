"""Shared builders for the experiment benchmarks (see DESIGN.md section 3).

Each ``bench_eN_*.py`` regenerates one experiment: it prints the
paper-shaped rows (who wins, by what factor, where crossovers fall) and
asserts the shape, while the ``benchmark`` fixture times the experiment's
hot operation.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.apps.conferencing import ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.message_system import MessageSystem
from repro.apps.workflow import WorkflowSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment
from repro.information.interchange import FormatConverter, make_common
from repro.org.model import Organisation, Person
from repro.sim.world import World


def synthetic_converter(index: int) -> FormatConverter:
    """A distinct format for synthetic app #index (used to scale N)."""
    key = f"fmt{index}"

    def to_common(document):
        return make_common("note", document.get(f"{key}-title", ""),
                           document.get(f"{key}-body", ""))

    def from_common(common):
        return {f"{key}-title": common["title"], f"{key}-body": common["body"]}

    return FormatConverter(key, to_common, from_common)


def build_environment(
    world: World,
    n_people: int = 2,
    orgs: list[str] | None = None,
    open_policies: bool = True,
    metrics=None,
    tracer=None,
    resolution_cache: bool = True,
) -> CSCWEnvironment:
    """An environment with people spread round-robin over organisations.

    Pass an obs *metrics* registry and/or *tracer* to build an
    instrumented environment (routed through the environment builder);
    pass ``resolution_cache=False`` for the cold-resolution baseline the
    throughput benchmark compares the exchange fast path against.
    """
    builder = (CSCWEnvironment.builder()
               .with_world(world)
               .with_resolution_cache(resolution_cache))
    if metrics is not None:
        builder = builder.with_metrics(metrics)
    if tracer is not None:
        builder = builder.with_tracer(tracer)
    env = builder.build()
    org_ids = orgs if orgs is not None else ["upc", "gmd"]
    organisations = {org_id: Organisation(org_id, org_id.upper()) for org_id in org_ids}
    for index in range(n_people):
        org_id = org_ids[index % len(org_ids)]
        person_id = f"p{index}"
        organisations[org_id].add_person(Person(person_id, f"Person {index}", org_id))
        node = f"ws-{person_id}"
        if not world.network.has_node(node):
            world.network.add_node(node, site=org_id)
        env.register_person(Communicator(person_id, node))
    for organisation in organisations.values():
        env.knowledge_base.add_organisation(organisation)
    if open_policies:
        for a in org_ids:
            for b in org_ids:
                if a != b:
                    env.knowledge_base.policies.declare(a, b, {"*"})
    return env


def standard_apps() -> list:
    """The four heterogeneous stock applications."""
    return [ConferencingSystem(), MessageSystem(), WorkflowSystem(), DocumentProcessor()]


def metrics_blob(name: str, registry) -> dict:
    """A ``BENCH_<NAME>.json``-compatible metrics blob for one bench run.

    *registry* is a :class:`repro.obs.MetricsRegistry`; the blob pairs
    the bench name with the registry's full snapshot so successive perf
    PRs can diff counters/histograms run-over-run.
    """
    return {"bench": name, "metrics": registry.snapshot()}


def emit_metrics(name: str, registry, directory: str | None = None) -> str | None:
    """Print a bench's metrics blob; optionally persist it as JSON.

    The blob is written to ``<dir>/BENCH_<NAME>.json`` when *directory*
    (or the ``BENCH_METRICS_DIR`` environment variable) names a
    directory; returns the written path, or ``None`` when print-only.
    """
    blob = metrics_blob(name, registry)
    text = json.dumps(blob, indent=2, sort_keys=True)
    print(f"\nBENCH_{name.upper()} metrics:")
    print(text)
    target = directory or os.environ.get("BENCH_METRICS_DIR")
    if not target:
        return None
    path = os.path.join(target, f"BENCH_{name.upper()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def canonical_sha256(blob: dict) -> str:
    """The sha256 of a bench result *blob* as sorted-key JSON."""
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
