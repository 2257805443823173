#!/usr/bin/env python3
"""The paper's running example: managing a large engineering project.

Section 3: "the management of a large scale engineering project
(e.g. building the Channel Tunnel) can be undertaken as a cooperative
activity.  The overall task may involve an on-going programme of
sub-activities such as team progress meetings, the joint production of
reports, monitoring and interviews as well as more ad-hoc, informal
communication between project members."

This example builds that programme on the environment's activity
services: interrelated activities with temporal dependencies and shared
resources, dependency-aware scheduling, responsibility negotiation,
progress monitoring with deadline alerts, and expertise-based staffing.

Run:  python examples/channel_tunnel.py
"""

from repro.activity.dependencies import BEFORE, SHARES_INFORMATION, SHARES_RESOURCE
from repro.activity.scheduler import ActivityMonitor
from repro.communication.model import Communicator
from repro.environment.awareness import AwarenessService
from repro.environment.environment import CSCWEnvironment
from repro.expertise.matching import SkillRequirement, staff_activity
from repro.org.model import Organisation, Person, Resource, ResourceKind
from repro.sim.world import World


def main() -> None:
    world = World(seed=42)
    world.add_site("site-uk", ["ws-tom", "ws-mary"])
    world.add_site("site-fr", ["ws-pierre", "ws-claire"])
    env = CSCWEnvironment.builder().with_world(world).build()

    # -- organisations and people -----------------------------------------
    consortium = Organisation("tml", "TransManche Link")
    people = {
        "tom": "Tom Rodden", "mary": "Mary Shaw",
        "pierre": "Pierre Martin", "claire": "Claire Dubois",
    }
    for person_id, name in people.items():
        consortium.add_person(Person(person_id, name, "tml"))
    boring_machine = consortium.add_resource(
        Resource("tbm-1", "Tunnel Boring Machine 1", "tml",
                 ResourceKind.EQUIPMENT, capacity=1)
    )
    env.knowledge_base.add_organisation(consortium)
    for person_id, node in [("tom", "ws-tom"), ("mary", "ws-mary"),
                            ("pierre", "ws-pierre"), ("claire", "ws-claire")]:
        env.register_person(Communicator(person_id, node))

    # -- expertise-based staffing ------------------------------------------
    env.expertise.profile("tom").add_capability("geology", 4)
    env.expertise.profile("mary").add_capability("reporting", 5)
    env.expertise.profile("pierre").add_capability("boring", 5)
    env.expertise.profile("claire").add_capability("geology", 5)
    assignments = staff_activity(
        env.expertise,
        [SkillRequirement("geology", 4), SkillRequirement("boring", 4),
         SkillRequirement("reporting", 4)],
    )
    print(f"staffing: {assignments}")

    # -- the activity programme --------------------------------------------
    survey = env.create_activity("survey", "geological survey",
                                 members={assignments["geology"]: "lead"},
                                 deadline=500.0)
    boring = env.create_activity("boring", "tunnel boring",
                                 members={assignments["boring"]: "lead"})
    env.create_activity("progress-meetings", "team progress meetings",
                        members={"tom": "chair", "mary": "minutes"})
    report = env.create_activity("joint-report", "joint production of report",
                                 members={assignments["reporting"]: "editor"},
                                 deadline=900.0)
    env.dependencies.add(BEFORE, "survey", "boring")
    env.dependencies.add(BEFORE, "boring", "joint-report")
    env.dependencies.add(SHARES_RESOURCE, "survey", "boring", annotation="tbm-1")
    env.dependencies.add(SHARES_INFORMATION, "progress-meetings", "joint-report")

    print(f"planned order: {env.scheduler.plan(['survey', 'boring', 'joint-report'])}")
    neighbourhood = AwarenessService(env).activity_neighbourhood("boring")
    print(f"around boring: {neighbourhood}")

    # -- shared resource coordination ----------------------------------------
    env.resources.register(boring_machine)
    env.resources.claim("tbm-1", "survey")
    queued_immediately = env.resources.claim("tbm-1", "boring")
    print(f"boring got TBM immediately? {queued_immediately} (queued behind survey)")

    # -- negotiation of responsibility ------------------------------------------
    negotiation = env.negotiations.propose_responsibility(
        "joint-report", initiator="tom", responder="mary", responsible="mary"
    )
    negotiation.counter("mary", {"responsible": "tom"})
    negotiation.accept("tom")
    env.negotiations.settle(negotiation.negotiation_id)
    print(f"report responsibility: {env.negotiations.responsible_for('joint-report')}")

    # -- run the programme on simulated time --------------------------------------
    alerts = []
    env.bus.subscribe("activity", lambda e: alerts.append(e.payload)
                      if e.topic.endswith("/alert") else None)
    monitor = ActivityMonitor(world, env.activities, env.bus,
                              period_s=100.0, stall_after_s=10_000.0).start()

    # Starts every activity without pending predecessors: survey,
    # progress-meetings (and not boring / joint-report, which wait).
    env.scheduler.start_ready(world.now)
    world.run_for(300.0)
    env.activities.get("survey").report_progress(0.8, world.now)
    world.run_for(300.0)                           # survey misses its 500 deadline
    env.scheduler.complete("survey", world.now)    # unblocks boring
    env.resources.release("tbm-1", "survey")       # TBM passes to boring
    print(f"TBM now held by: {env.resources.holders_of('tbm-1')}")
    world.run_for(200.0)
    env.scheduler.complete("boring", world.now)    # unblocks joint-report
    env.activities.get("joint-report").report_progress(0.5, world.now)
    world.run_for(400.0)
    monitor.stop()

    overdue = {a["activity"] for a in alerts if a["reason"] == "overdue"}
    print(f"overdue alerts raised for: {sorted(overdue)}")
    print(f"activity states: "
          f"{[(a.activity_id, a.status.value) for a in env.activities.all()]}")


if __name__ == "__main__":
    main()
