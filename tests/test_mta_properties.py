"""Property-based tests over the message transfer network.

Random multi-MTA topologies with (possibly misconfigured) routes: the
invariant is *conservation* — every submitted message is either delivered
to the recipient's mailbox or an NDR is issued somewhere in the MHS
(auditable via report hooks even when the NDR itself cannot be routed
home) — and delivered messages arrive exactly once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.environment.environment import CSCWEnvironment
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import OrName
from repro.messaging.ua import UserAgent
from repro.sim.world import World

N_DOMAINS = 3


def _build(route_plan: list[int]):
    """A 3-MTA world; ``route_plan[i*N+j]`` picks MTA i's route for domain j:
    0 = no route, 1 = correct peer, 2 = the wrong peer (misrouted)."""
    world = World(seed=7)
    domains = [f"d{i}" for i in range(N_DOMAINS)]
    for index in range(N_DOMAINS):
        world.add_site(f"site{index}", [f"mta{index}", f"ws{index}"])
    mtas = [
        MessageTransferAgent(world, f"mta{i}", f"m{i}", [("xx", "", domains[i])])
        for i in range(N_DOMAINS)
    ]
    for mta in mtas:
        for other_index, other in enumerate(mtas):
            if other is not mta:
                mta.add_peer(other.name, other.node)
    for i in range(N_DOMAINS):
        for j in range(N_DOMAINS):
            if i == j:
                continue
            choice = route_plan[i * N_DOMAINS + j]
            if choice == 0:
                continue  # no route: expect NDR
            if choice == 1:
                mtas[i].routing.add_route("xx", "*", domains[j], f"m{j}")
            else:
                wrong = (j + 1) % N_DOMAINS
                if wrong == i:
                    wrong = (wrong + 1) % N_DOMAINS
                mtas[i].routing.add_route("xx", "*", domains[j], f"m{wrong}")
    uas = []
    for index in range(N_DOMAINS):
        user = OrName(country="xx", admd="", prmd=domains[index], surname=f"user{index}")
        ua = UserAgent(world, f"ws{index}", user, f"mta{index}")
        ua.register()
        uas.append(ua)
    return world, mtas, uas


@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_property_mail_is_never_silently_lost(route_plan):
    world, mtas, uas = _build(route_plan)
    audited_reports: list[dict] = []
    for mta in mtas:
        mta.add_report_hook(audited_reports.append)
    message_ids = []
    for sender_index in range(N_DOMAINS):
        for receiver_index in range(N_DOMAINS):
            if sender_index == receiver_index:
                continue
            message_ids.append(
                uas[sender_index].send(
                    [uas[receiver_index].user],
                    f"{sender_index}->{receiver_index}",
                    "x",
                )
            )
    world.run(max_events=2_000_000)
    delivered: dict[str, int] = {}
    for ua in uas:
        for summary in ua.list_inbox():
            mid = summary["message_id"]
            delivered[mid] = delivered.get(mid, 0) + 1
    reported = {
        report.subject_message_id
        for ua in uas
        for report in ua.unread_reports()
    }
    audited = {doc["subject_message_id"] for doc in audited_reports}
    for message_id in message_ids:
        assert (
            message_id in delivered or message_id in reported or message_id in audited
        ), f"message {message_id} vanished silently"
        # At-most-once delivery of the payload.
        assert delivered.get(message_id, 0) <= 1
    # Reports returned to originators are a subset of the audit stream.
    assert reported <= audited | set(message_ids)


def test_environment_describe_snapshot(world):
    """The admin inventory view reflects the live environment."""
    from repro.apps.conferencing import ConferencingSystem
    from repro.communication.model import Communicator
    from repro.org.model import Organisation, Person

    env = CSCWEnvironment.builder().with_world(world).build()
    org = Organisation("upc", "UPC")
    org.add_person(Person("ana", "Ana", "upc"))
    env.knowledge_base.add_organisation(org)
    world.add_site("bcn", ["w1"])
    env.register_person(Communicator("ana", "w1"))
    ConferencingSystem().attach(env)
    env.create_activity("a1", "one", members={"ana": "chair"})
    snapshot = env.describe()
    assert snapshot["organisations"] == ["upc"]
    assert snapshot["people"]["ana"]["present"]
    assert snapshot["activities"] == {"a1": "pending"}
    assert "conferencing" in str(snapshot["applications"])
    assert snapshot["integration_cost"] == 1
    assert snapshot["interop_coverage"] == 1.0
