#!/usr/bin/env python3
"""The groupware time-space matrix (Figure 1), populated and exercised.

One application per quadrant runs a short scenario, then the environment
prints the populated matrix — and shows one activity spanning quadrants:
the meeting's board items flow into the conferencing system for the
absent colleague (the coexistence of synchronous/asynchronous and
remote/co-located working that open CSCW systems must allow, section 3).
Then the remote colleague, away, reaches the environment as an ODP
service (Figure 4): a registered view and the time transparency decide
what waits on return, and the shared editor is tailored per user.

Run:  python examples/time_space_matrix.py
"""

from dataclasses import replace

from repro.apps.conferencing import ConferencingSystem
from repro.apps.meeting_room import MeetingRoom
from repro.apps.shared_editor import SharedEditor
from repro.apps.workflow import Procedure, ProcedureStep, WorkflowSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.server import EnvironmentClient, EnvironmentServer
from repro.environment.tailoring import TailorableParameter
from repro.environment.transparency import TransparencyProfile
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
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

    # -- joan is away: the environment as an ODP service (Figure 4) -----------
    world.add_site("datacenter", ["env-node"])
    capsule = Capsule(world.network, "env-node")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    joans_client = EnvironmentClient(world, factory, "ra1", EnvironmentServer(env).deploy(capsule))
    joans_client.person_leaves("joan")
    env.views.set_view("joan", layout="threaded")
    env.set_shed_limit(2)
    print(f"\njoan leaves remotely; joan's view: {env.views.view_of('joan')}")
    note = ExchangeRequest("ana", "joan", meeting.name, conferencing.name,
                           {"text": "minutes filed", "category": "requirements",
                            "author": "ana"})
    time_off = TransparencyProfile.all_on().without("time")
    for label, request in (
        ("time transparency off", replace(note, profile=time_off)),
        ("time transparency on", replace(note, profile=time_off.with_("time"))),
        ("due within 1 s", replace(note, deadline=world.now + 1.0)),
        ("queue full", note),
        ("already late", replace(note, deadline=world.now)),
    ):
        outcome = env.exchange(request)
        dimensions = (request.profile or TransparencyProfile.all_on()).enabled_dimensions()
        print(f"  {label:22s} {outcome.reason_code:18s} hidden: {', '.join(dimensions)}")
    print(f"  queued for joan: {joans_client.pending_for('joan')}")
    world.run_for(2.0)
    flushed = joans_client.person_arrives("joan")
    print(f"joan returns: {flushed} delivery flushed (the one due within 1 s expired); "
          f"exchanges {joans_client.describe()['exchanges']}")

    # -- tailorability, the board's second requirement ------------------------
    env.tailoring.declare(editor.name, TailorableParameter("ui.font_size", numeric_range=(8, 32)))
    env.tailoring.set_default(editor.name, {"ui": {"font_size": 12}})
    env.tailoring.tailor(editor.name, "ui.font_size", 16, layer="user", subject="joan")
    toolkit = [parameter.path for parameter in env.tailoring.parameters_of(editor.name)]
    print(f"\n{editor.name} toolkit {toolkit}: font size "
          f"{env.tailoring.effective_value(editor.name, 'ui.font_size', user='joan')} for joan, "
          f"{env.tailoring.effective_value(editor.name, 'ui.font_size', user='ana')} for ana")


if __name__ == "__main__":
    main()
