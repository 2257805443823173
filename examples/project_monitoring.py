#!/usr/bin/env python3
"""Monitoring a cooperative programme: awareness + analysis services.

Runs a multi-activity project on the environment, then answers the
questions the paper's activity/communication models exist for: who is
working with whom, which activities are coupled and cannot be managed in
isolation, where the critical path runs, and how communication splits
across modes and organisations.

Run:  python examples/project_monitoring.py
"""

from repro.activity.dependencies import BEFORE, SHARES_INFORMATION, SHARES_RESOURCE
from repro.analysis.activity_network import (
    coupling_clusters,
    critical_path,
    key_collaborators,
)
from repro.analysis.communication import (
    cross_organisation_flows,
    reciprocity,
    summarize,
    top_talkers,
)
from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.awareness import AwarenessService
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.org.model import Organisation, Person
from repro.sim.world import World


def main() -> None:
    world = World(seed=17)
    world.add_site("bcn", ["w-ana", "w-joan"])
    world.add_site("bonn", ["w-wolf", "w-heinz"])
    env = CSCWEnvironment.builder().with_world(world).build()

    # -- two organisations, open policies ------------------------------------
    upc = Organisation("upc", "UPC")
    gmd = Organisation("gmd", "GMD")
    for org, person_id, node in [
        (upc, "ana", "w-ana"), (upc, "joan", "w-joan"),
        (gmd, "wolf", "w-wolf"), (gmd, "heinz", "w-heinz"),
    ]:
        org.add_person(Person(person_id, person_id.title(), org.org_id))
        env.register_person(Communicator(person_id, node))
    env.knowledge_base.add_organisation(upc)
    env.knowledge_base.add_organisation(gmd)
    env.knowledge_base.policies.declare("upc", "gmd", {"*"}, symmetric=True)

    ConferencingSystem().attach(env, exporter_org="upc")
    MessageSystem().attach(env, exporter_org="gmd")

    # -- the activity programme ------------------------------------------------
    env.create_activity("survey", "requirements survey",
                        members={"ana": "lead", "wolf": "m"})
    env.create_activity("draft", "draft standard",
                        members={"ana": "editor", "joan": "m", "wolf": "m"})
    env.create_activity("review", "external review",
                        members={"heinz": "reviewer", "joan": "m"})
    env.create_activity("publish", "publish standard", members={"ana": "m"})
    env.dependencies.add(BEFORE, "survey", "draft")
    env.dependencies.add(BEFORE, "draft", "review")
    env.dependencies.add(BEFORE, "review", "publish")
    env.dependencies.add(SHARES_INFORMATION, "draft", "review", annotation="draft-doc")
    env.dependencies.add(SHARES_RESOURCE, "survey", "review", annotation="lab")

    # -- some cooperative traffic -------------------------------------------------
    document = {"topic": "draft", "entry": "please comment", "conference": "std",
                "author": "ana"}
    env.exchange(ExchangeRequest("ana", "wolf", "conferencing", "message-system",
                                 document, activity_id="draft"))
    env.exchange(ExchangeRequest("wolf", "ana", "message-system", "conferencing",
                                 {"subject": "re: draft", "text": "comments attached",
                                  "template": "plain", "fields": {}},
                                 activity_id="draft"))
    env.person_leaves("heinz")
    env.exchange(ExchangeRequest("joan", "heinz", "conferencing", "message-system",
                                 document, activity_id="review"))

    # -- awareness queries ----------------------------------------------------------
    awareness = AwarenessService(env)
    print("awareness for ana:")
    print(f"  my activities:        {awareness.my_activities('ana')}")
    print(f"  related activities:   {awareness.related_activities('ana')}")
    print(f"  reachable colleagues: {awareness.reachable_now('ana')}")
    print(f"  around 'draft-doc':   {awareness.who_works_with('draft-doc')}")

    # -- analysis --------------------------------------------------------------------
    durations = {"survey": 5.0, "draft": 20.0, "review": 10.0, "publish": 2.0}
    path, total = critical_path(env.dependencies, durations)
    clusters = coupling_clusters(env.dependencies,
                                 [a.activity_id for a in env.activities.all()])
    summary = summarize(env.communication_log)
    print("\nanalysis:")
    print(f"  critical path:     {' -> '.join(path)}  ({total:.0f} days)")
    print(f"  coupling clusters: {sorted(sorted(c) for c in clusters)}")
    print(f"  key collaborators: {key_collaborators(env.activities, limit=2)}")
    print(f"  traffic:           {summary.exchanges} exchanges, "
          f"{summary.bytes_total} bytes, "
          f"{summary.synchronous_share:.0%} synchronous")
    print(f"  top talkers:       {top_talkers(env.communication_log, limit=2)}")
    print(f"  cross-org flows:   {cross_organisation_flows(env.communication_log)}")
    print(f"  reciprocity:       {reciprocity(env.communication_log):.2f}")
    print(f"  queued for heinz (absent): {env.pending_for('heinz')}")
    flushed = env.person_arrives("heinz")
    print(f"  flushed when heinz returned: {flushed}")

    # -- the administrator's one-page report ------------------------------------
    from repro.analysis.report import environment_report

    print()
    print(environment_report(env))


if __name__ == "__main__":
    main()
