"""E4 — transparency ablation: what each CSCW transparency buys.

Paper claim (section 4): each transparency (organisation, time, view,
activity) hides one dimension of cooperative complexity; without it, a
class of interactions becomes impossible or disturbed.  Section 6.1 adds
that the selection must be user-tailorable.

Regenerated table: a fixed workload of exchanges that crosses every
dimension (cross-organisation, cross-format, absent receivers, multiple
concurrent activities) is replayed under five profiles — all-on and each
single ablation — reporting delivery rate and event disturbance.
"""

from __future__ import annotations

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.environment.environment import ExchangeRequest
from repro.environment.transparency import CSCW_DIMENSIONS, TransparencyProfile
from repro.sim.world import World
from repro.util.events import EventRecorder

from bench_common import build_environment


def _build(seed: int = 4):
    world = World(seed=seed)
    env = build_environment(world, n_people=4, orgs=["upc", "gmd"])
    ConferencingSystem().attach(env, exporter_org="upc")
    MessageSystem().attach(env, exporter_org="gmd")
    # p2 is away from their workstation: exercises the time dimension.
    env.communicators.set_presence("p2", False)
    env.create_activity("act-a", "activity A",
                        members={p: "m" for p in ("p0", "p1", "p2", "p3")})
    env.create_activity("act-b", "activity B",
                        members={p: "m" for p in ("p0", "p1", "p2", "p3")})
    return world, env


#: (sender, receiver, sender_app, receiver_app, activity) — crosses orgs
#: (even/odd people are in different orgs), formats, presence, activities.
WORKLOAD = [
    ("p0", "p1", "conferencing", "message-system", "act-a"),   # org+view
    ("p0", "p2", "conferencing", "conferencing", "act-a"),      # time (same org)
    ("p1", "p3", "message-system", "message-system", "act-b"),  # plain (same org)
    ("p0", "p2", "conferencing", "message-system", "act-b"),    # view+time
    ("p1", "p0", "message-system", "conferencing", "act-a"),    # org+view
    ("p2", "p0", "conferencing", "conferencing", "act-a"),      # plain (same org)
]

DOCUMENTS = {
    "conferencing": {"topic": "t", "entry": "e", "conference": "c", "author": "x"},
    "message-system": {"subject": "s", "text": "x", "template": "plain", "fields": {}},
}


def _run_workload(env, profile) -> tuple[int, int]:
    delivered = 0
    for sender, receiver, source_app, target_app, activity in WORKLOAD:
        outcome = env.exchange(ExchangeRequest(
            sender, receiver, source_app, target_app,
            DOCUMENTS[source_app], activity_id=activity, profile=profile,
        ))
        delivered += int(outcome.delivered)
    return delivered, len(WORKLOAD)


def test_e4_ablation_table(benchmark):
    profiles = {"all-on": TransparencyProfile.all_on()}
    for dimension in CSCW_DIMENSIONS:
        profiles[f"-{dimension}"] = TransparencyProfile.all_on().without(dimension)
    profiles["all-off"] = TransparencyProfile.all_off()

    rows = []
    for label, profile in profiles.items():
        world, env = _build()
        # Disturbance probe: a subscriber interested ONLY in activity A.
        act_a_only = EventRecorder()
        env.bus.subscribe("activity/act-a", act_a_only)
        leaked = EventRecorder()
        env.bus.subscribe("exchange", leaked)
        delivered, total = _run_workload(env, profile)
        rows.append((label, delivered, total, len(leaked.events)))

    print("\nE4: transparency ablation")
    print(f"{'profile':>14} {'delivered':>10} {'disturbance(global leaks)':>26}")
    for label, delivered, total, leaks in rows:
        print(f"{label:>14} {delivered:>6}/{total:<3} {leaks:>18}")

    by_label = {label: (delivered, leaks) for label, delivered, total, leaks in rows}
    # Shape: full transparency delivers everything with no leaks.
    assert by_label["all-on"] == (len(WORKLOAD), 0)
    # Each ablation loses the exchanges crossing its dimension.
    assert by_label["-organisation"][0] < len(WORKLOAD)
    assert by_label["-time"][0] < len(WORKLOAD)
    assert by_label["-view"][0] < len(WORKLOAD)
    # Activity ablation still delivers but leaks every event globally.
    assert by_label["-activity"][0] == len(WORKLOAD)
    assert by_label["-activity"][1] == len(WORKLOAD)
    # All-off is the closed world: only same-org, same-format, both-present
    # exchanges survive (2 of 6 here).
    assert by_label["all-off"][0] == 2

    # Time the all-on workload.
    world, env = _build()
    benchmark(lambda: _run_workload(env, TransparencyProfile.all_on()))


def test_e4_selection_is_per_user(benchmark):
    """Section 6.1: users select their own transparency (tailorable)."""
    world, env = _build()
    wysiwis_profile = TransparencyProfile.all_on().without("view")
    default_profile = TransparencyProfile.all_on()

    def run() -> tuple[bool, bool]:
        # Same exchange, two user choices: the WYSIWIS user refuses view
        # translation (and fails across formats); the default user accepts.
        strict = env.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "message-system",
            DOCUMENTS["conferencing"], profile=wysiwis_profile,
        ))
        relaxed = env.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "message-system",
            DOCUMENTS["conferencing"], profile=default_profile,
        ))
        return strict.delivered, relaxed.delivered

    strict_ok, relaxed_ok = benchmark(run)
    assert not strict_ok and relaxed_ok
    print("\nE4b: per-user transparency selection: WYSIWIS user blocks "
          "cross-format exchange; default user cooperates")
