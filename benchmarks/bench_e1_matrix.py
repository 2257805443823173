"""E1 — Figure 1: the groupware time-space matrix, populated and crossed.

Paper claim (section 2): CSCW systems divide into four quadrants by
interaction form (same/different time) and geography (same/different
place); open CSCW systems must let "remote/local cooperation ...
synchronous/asynchronous working" co-exist (section 3).

Regenerated figure: the populated matrix, plus a cross-quadrant flow —
each quadrant's application exchanges with every other through the
environment, which a closed world cannot do at all.
"""

from __future__ import annotations

from repro.apps.conferencing import ConferencingSystem
from repro.apps.meeting_room import MeetingRoom
from repro.apps.shared_editor import SharedEditor
from repro.apps.workflow import WorkflowSystem
from repro.environment.environment import ExchangeRequest
from repro.environment.registry import QUADRANTS
from repro.sim.world import World

from bench_common import build_environment


def _matrix_world():
    world = World(seed=5)
    world.colocated(3)
    world.add_site("remote", ["r1", "r2"])
    env = build_environment(world, n_people=4, orgs=["upc"])
    meeting = MeetingRoom(world)
    editor = SharedEditor(world)
    conferencing = ConferencingSystem()
    workflow = WorkflowSystem()
    for app in (meeting, editor, conferencing, workflow):
        app.attach(env)
    return world, env, {
        "meeting-room": meeting,
        "shared-editor": editor,
        "conferencing": conferencing,
        "workflow": workflow,
    }


def test_e1_matrix_population_and_cross_quadrant_flow(benchmark):
    world, env, apps = _matrix_world()

    coverage = env.applications.coverage_matrix()
    print("\nE1: populated time-space matrix")
    for quadrant in QUADRANTS:
        print(f"  {quadrant:36s} -> {', '.join(coverage[quadrant]) or '-'}")
    # Shape: every quadrant has at least one application.
    for quadrant in QUADRANTS:
        assert coverage[quadrant], f"quadrant {quadrant} unpopulated"

    # Cross-quadrant exchanges: every ordered app pair delivers.
    app_names = sorted(apps)
    documents = {
        "meeting-room": {"text": "board item", "category": "c", "author": "p0"},
        "shared-editor": {"title": "doc", "lines": ["line"]},
        "conferencing": {"topic": "t", "entry": "e", "conference": "c", "author": "p0"},
        "workflow": {"form_name": "f", "slots": {"a": 1}},
    }

    def cross_quadrant_flow() -> int:
        delivered = 0
        for source in app_names:
            for target in app_names:
                if source == target:
                    continue
                outcome = env.exchange(ExchangeRequest(
                    "p0", "p1", source, target, documents[source]
                ))
                delivered += int(outcome.delivered)
        return delivered

    delivered = benchmark(cross_quadrant_flow)
    total = len(app_names) * (len(app_names) - 1)
    print(f"  cross-quadrant deliveries: {delivered}/{total}")
    assert delivered == total


def test_e1_quadrant_latency_shape(benchmark):
    """Co-located (LAN) fan-out must beat remote (WAN) fan-out on latency."""
    world = World(seed=6)
    world.colocated(2)              # ws1, ws2 in one room
    world.add_site("far-a", ["fa1"])
    world.add_site("far-b", ["fb1"])

    from repro.communication.realtime import RealTimeSession

    local = RealTimeSession(world, "local")
    local.join("a", "ws1", lambda s, b: None)
    local.join("b", "ws2", lambda s, b: None)
    remote = RealTimeSession(world, "remote")
    remote.join("c", "fa1", lambda s, b: None)
    remote.join("d", "fb1", lambda s, b: None)

    def measure() -> tuple[float, float]:
        start = world.now
        local.say("a", {"text": "ping"})
        world.run()
        local_latency = world.now - start
        start = world.now
        remote.say("c", {"text": "ping"})
        world.run()
        remote_latency = world.now - start
        return local_latency, remote_latency

    local_latency, remote_latency = benchmark(measure)
    print(f"\nE1b: same-place latency {local_latency * 1000:.2f} ms vs "
          f"different-place latency {remote_latency * 1000:.2f} ms "
          f"({remote_latency / local_latency:.0f}x)")
    assert remote_latency > local_latency * 10
