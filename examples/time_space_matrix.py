#!/usr/bin/env python3
"""The groupware time-space matrix (Figure 1), populated and exercised.

One application per quadrant runs a short scenario, then the environment
prints the populated matrix — and shows one activity spanning quadrants:
the meeting's board items flow into the conferencing system for the
absent colleague (the coexistence of synchronous/asynchronous and
remote/co-located working that open CSCW systems must allow, section 3).

Run:  python examples/time_space_matrix.py
"""

from repro.apps.conferencing import ConferencingSystem
from repro.apps.meeting_room import MeetingRoom
from repro.apps.shared_editor import SharedEditor
from repro.apps.workflow import Procedure, ProcedureStep, WorkflowSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.org.model import Organisation, Person
from repro.sim.world import World


def main() -> None:
    world = World(seed=11)
    world.colocated(3)                      # meeting room: ws1..ws3
    world.add_site("remote-a", ["ra1"])
    world.add_site("remote-b", ["rb1"])
    env = CSCWEnvironment.builder().with_world(world).build()
    org = Organisation("upc", "UPC")
    for person_id in ("ana", "joan", "marta"):
        org.add_person(Person(person_id, person_id.title(), "upc"))
    env.knowledge_base.add_organisation(org)
    env.register_person(Communicator("ana", "ws1"))
    env.register_person(Communicator("joan", "ra1"))
    env.register_person(Communicator("marta", "ws2"))

    # same time / same place: COLAB-style meeting
    meeting = MeetingRoom(world)
    meeting.attach(env)
    meeting.enter_room("ana", "ws1")
    meeting.enter_room("marta", "ws2")
    meeting.add_agenda_point("requirements")
    meeting.begin_brainstorm("requirements")
    meeting.add_item("ana", "support information sharing")
    meeting.add_item("marta", "support tailorability")
    world.run()

    # same time / different place: WYSIWIS shared editor
    editor = SharedEditor(world)
    editor.attach(env)
    editor.open_document("ana", "ws3")
    editor.open_document("joan", "ra1")
    editor.insert("ana", 0, "Requirements draft")
    editor.insert("joan", 1, "- openness")
    world.run()
    assert editor.converged()

    # different time / different place: conferencing
    conferencing = ConferencingSystem()
    conferencing.attach(env)
    conferencing.create_conference("requirements", "ana")
    conferencing.join("requirements", "joan")

    # different time / same place: office workflow
    workflow = WorkflowSystem()
    workflow.attach(env)
    workflow.define_procedure(Procedure("circulate-minutes", [
        ProcedureStep("write", "author", fills=("minutes",)),
        ProcedureStep("file", "clerk"),
    ]))
    workflow.grant_role("marta", "author")
    workflow.grant_role("ana", "clerk")
    case = workflow.start_case("circulate-minutes", {})
    workflow.perform_step(case.case_id, "marta", {"minutes": "see board"})
    workflow.perform_step(case.case_id, "ana")

    # -- the populated matrix ------------------------------------------------
    print("Groupware time-space matrix (Figure 1):")
    for quadrant, apps in env.applications.coverage_matrix().items():
        print(f"  {quadrant:36s} -> {', '.join(apps) if apps else '-'}")

    # -- one activity spans quadrants -----------------------------------------
    env.create_activity("requirements-activity", "requirements capture",
                        members={"ana": "chair", "joan": "remote", "marta": "scribe"})
    for item in meeting.board():
        outcome = env.exchange(ExchangeRequest(
            sender="ana", receiver="joan",
            sender_app=meeting.name, receiver_app=conferencing.name,
            document={"text": item.text, "category": "requirements",
                      "author": item.author},
            activity_id="requirements-activity",
        ))
        assert outcome.delivered and outcome.translated
    entries = conferencing.news_for("imported", "joan")
    print("\njoan's conference news from the co-located meeting:")
    for entry in entries:
        print(f"  [{entry.conference}] {entry.author}: {entry.text}")
    print(f"\nmeeting board -> conference entries: {len(entries)} items crossed "
          f"from same-time/same-place to different-time/different-place")


if __name__ == "__main__":
    main()
