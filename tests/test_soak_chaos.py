"""Soak/chaos tests: long runs, random failures, global invariants.

These tests run the full stack over longer simulated horizons with
randomized crash/recovery cycles and check conservation invariants:
messages are either delivered or reported, replicas converge, the
environment's queues drain, and nothing raises unexpectedly.
"""

from __future__ import annotations

import pytest

from repro.apps.shared_editor import SharedEditor
from repro.environment.environment import ExchangeRequest
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import OrName
from repro.messaging.ua import UserAgent
from repro.sim.rng import SeededRng
from repro.sim.world import World


def _two_site_mhs(world: World, users_per_site: int = 3):
    world.add_site("a", ["mta-a"] + [f"a{i}" for i in range(users_per_site)])
    world.add_site("b", ["mta-b"] + [f"b{i}" for i in range(users_per_site)])
    mta_a = MessageTransferAgent(world, "mta-a", "a", [("xx", "", "a")])
    mta_b = MessageTransferAgent(world, "mta-b", "b", [("xx", "", "b")])
    mta_a.add_peer("b", "mta-b")
    mta_b.add_peer("a", "mta-a")
    mta_a.routing.add_default("b")
    mta_b.routing.add_default("a")
    uas = []
    for side, mta_node in (("a", "mta-a"), ("b", "mta-b")):
        for index in range(users_per_site):
            user = OrName(country="xx", admd="", prmd=side, surname=f"u{side}{index}")
            ua = UserAgent(world, f"{side}{index}", user, mta_node)
            ua.register()
            uas.append(ua)
    return mta_a, mta_b, uas


class TestMessagingChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mail_conserved_under_random_mta_crashes(self, seed):
        """Every accepted message is delivered or NDR'd — never lost.

        MTA crash windows are kept shorter than the retry budget
        (4 attempts x 2 s), so store-and-forward masks every outage and
        nothing is silently dropped.
        """
        world = World(seed=seed)
        mta_a, mta_b, uas = _two_site_mhs(world)
        rng = SeededRng(seed + 100)
        # Random short crash windows on both MTAs across the horizon.
        for mta_node in ("mta-a", "mta-b"):
            t = 1.0
            while t < 50.0:
                t += rng.exponential(15.0)
                if t >= 50.0:
                    break
                world.failures.crash_at(mta_node, at=t, duration=rng.uniform(0.5, 4.0))
                t += 5.0
        # Senders on both sides, receivers across the cut, spread in time.
        from repro.util.errors import MessagingError

        accepted = []
        refused = []

        def try_submit(sender: UserAgent, receiver: UserAgent, index: int) -> None:
            envelope = sender.compose([receiver.user], f"chaos {index}", "body")
            try:
                sender.submit(envelope)
                accepted.append(envelope.message_id)
            except MessagingError:
                refused.append(envelope.message_id)  # home MTA down: visible failure

        for index in range(30):
            sender = uas[index % len(uas)]
            receiver = uas[(index + 3) % len(uas)]
            when = world.now + 0.1 + index * 2.0
            world.engine.schedule_at(
                when, lambda s=sender, r=receiver, i=index: try_submit(s, r, i)
            )
        world.run(max_events=5_000_000)
        # Conservation: every *accepted* message reached a mailbox (the
        # crash windows are shorter than the MTA retry budget, so no
        # NDRs are expected); refusals were surfaced to the sender.
        delivered_ids = set()
        for ua in uas:
            for summary in ua.list_inbox():
                delivered_ids.add(summary["message_id"])
        ndrs = sum(m.reports_issued for m in (mta_a, mta_b))
        assert len(accepted) + len(refused) == 30
        for message_id in accepted:
            assert message_id in delivered_ids or ndrs > 0, (
                f"accepted message {message_id} neither delivered nor reported"
            )
        assert set(accepted) <= delivered_ids or ndrs > 0

    def test_submission_during_home_mta_outage_times_out_visibly(self):
        """A UA whose own MTA is down gets an explicit error, not silence."""
        from repro.util.errors import MessagingError

        world = World(seed=9)
        mta_a, mta_b, uas = _two_site_mhs(world)
        world.network.node("mta-a").crash()
        with pytest.raises(MessagingError, match="timeout"):
            uas[0].send([uas[1].user], "s", "b")


class TestEditorChaosConvergence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_edit_storm_converges(self, seed):
        world = World(seed=seed)
        world.add_site("net", [f"e{i}" for i in range(4)])
        editor = SharedEditor(world)
        people = [f"user{i}" for i in range(4)]
        for index, person in enumerate(people):
            editor.open_document(person, f"e{index}")
        rng = SeededRng(seed)
        for _ in range(60):
            person = rng.choice(people)
            if rng.chance(0.7):
                editor.insert(person, rng.randint(0, 10), f"line-{rng.randint(0, 99)}")
            else:
                editor.delete(person, rng.randint(0, 10))
            if rng.chance(0.3):
                world.run_for(0.001)  # interleave partial propagation
        world.run()
        assert editor.converged()
        views = {person: editor.view(person) for person in people}
        first = views[people[0]]
        assert all(view == first for view in views.values())


class TestEnvironmentQueueDrain:
    def test_pending_queues_always_drain_on_arrival(self, world):
        from repro.apps.conferencing import ConferencingSystem
        from repro.apps.message_system import MessageSystem
        from repro.communication.model import Communicator
        from repro.environment.environment import CSCWEnvironment
        from repro.org.model import Organisation, Person

        env = CSCWEnvironment.builder().with_world(world).build()
        org = Organisation("upc", "UPC")
        org.add_person(Person("ana", "Ana", "upc"))
        org.add_person(Person("joan", "Joan", "upc"))
        env.knowledge_base.add_organisation(org)
        world.add_site("bcn", ["w1", "w2"])
        env.register_person(Communicator("ana", "w1"))
        env.register_person(Communicator("joan", "w2"))
        ConferencingSystem().attach(env)
        messages = MessageSystem()
        messages.attach(env)
        rng = SeededRng(5)
        expected_inbox = 0
        document = {"topic": "t", "entry": "e", "conference": "c", "author": "ana"}
        for round_number in range(20):
            if rng.chance(0.5):
                env.person_leaves("joan")
            else:
                env.person_arrives("joan")
            outcome = env.exchange(ExchangeRequest(
                "ana", "joan", "conferencing", "message-system", document
            ))
            assert outcome.delivered
            expected_inbox += 1
        env.person_arrives("joan")
        assert env.pending_for("joan") == 0
        assert len(messages.folder("joan")) == expected_inbox


class TestFederatedChaosSoak:
    """4-domain federation under flapping links and rolling gateway crashes.

    Conservation invariant: every federated_exchange returns exactly one
    outcome — delivered (and then present in exactly one inbox: the
    relay dedup keeps at-least-once wire semantics at-most-once
    downstream) or reason-coded.  Nothing is silently lost and nothing
    raises.
    """

    @pytest.mark.parametrize("seed", [21, 22])
    def test_federated_exchanges_conserved_under_chaos(self, seed):
        from repro.environment.environment import REASON_DEADLINE_EXCEEDED
        from repro.environment.registry import (
            AppDescriptor,
            Q_DIFFERENT_TIME_DIFFERENT_PLACE,
        )
        from repro.federation.federation import (
            REASON_GATEWAY_DEAD_LETTER,
            Federation,
        )
        from repro.resilience import ChaosRunner

        world = World(seed=seed)
        names = ["upc", "gmd", "inria", "mcc"]
        federation = Federation.partition(
            world, {name: [f"p-{name}"] for name in names}
        )
        inbox: list = []
        federation.register_application(
            AppDescriptor(name="soak", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
            lambda person, doc, info: inbox.append((person, doc["n"])),
        )
        gateway_nodes = {name: federation.domain(name).node for name in names}
        chaos = ChaosRunner(world, name=f"soak-{seed}")
        # Flapping inter-domain links on two pairs...
        chaos.flap_link(
            gateway_nodes["upc"], gateway_nodes["gmd"],
            start=2.0, down_s=9.0, up_s=2.0, flaps=4,
        )
        chaos.flap_link(
            gateway_nodes["inria"], gateway_nodes["mcc"],
            start=3.0, down_s=9.0, up_s=2.0, flaps=4,
        )
        # ...plus rolling gateway-node crashes sweeping the federation:
        # downtime exceeds the full relay retry budget, so exchanges
        # originating at a crashed gateway must end as dead letters.
        chaos.crash_storm(
            [gateway_nodes["gmd"], gateway_nodes["inria"]],
            start=12.0, downtime_s=9.0, stagger_s=12.0, jitter_s=1.0,
        )
        rng = SeededRng(seed + 7)
        outcomes = []
        for index in range(30):
            sender = names[index % 4]
            receiver = names[(index + 1 + index % 3) % 4]
            deadline = world.now + 2.0 if index % 4 == 0 else None
            outcomes.append(
                federation.federated_exchange(ExchangeRequest(
                    f"p-{sender}", f"p-{receiver}", "soak", "soak",
                    {"n": index}, deadline=deadline,
                ))
            )
            world.run_for(rng.uniform(0.1, 1.5))
        world.run_for(30.0)  # drain: every in-flight relay settles
        # Conservation: one outcome per exchange, each delivered or
        # reason-coded with a failure the caller can act on.
        assert len(outcomes) == 30
        delivered = [o for o in outcomes if o.delivered]
        failed = [o for o in outcomes if not o.delivered]
        assert {o.reason_code for o in failed} <= {
            REASON_GATEWAY_DEAD_LETTER,
            REASON_DEADLINE_EXCEEDED,
        }
        # At-most-once AND at-least-once downstream: every delivered
        # exchange appears in exactly one inbox, nothing else does.
        assert sorted(n for _, n in inbox) == [
            index for index, o in enumerate(outcomes) if o.delivered
        ]
        # The chaos actually bit and the federation actually survived.
        assert delivered and failed
        # Parked dead letters stay accounted for in gateway stats.
        parked = sum(
            domain.gateway_to(peer).stats()["dead_letters"]
            for domain in federation.domains()
            for peer in gateway_nodes if peer != domain.name
        )
        dead_lettered = sum(
            1 for o in failed if o.reason_code == REASON_GATEWAY_DEAD_LETTER
        )
        assert dead_lettered <= parked + sum(
            domain.gateway_to(peer).expired + domain.gateway_to(peer).fast_failed
            for domain in federation.domains()
            for peer in gateway_nodes if peer != domain.name
        )
