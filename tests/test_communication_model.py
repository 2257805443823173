"""Tests for the communication model: sessions, async channels, bridge."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communication.asynchronous import AsyncChannel
from repro.communication.bridge import TimeTransparencyBridge
from repro.communication.model import (
    CommunicationContext,
    CommunicationLog,
    Communicator,
    CommunicatorRegistry,
    Exchange,
)
from repro.communication.realtime import RealTimeSession
from repro.messaging.body_parts import MEDIA_FAX, MEDIA_TEXT, text_body
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import or_name
from repro.messaging.ua import UserAgent
from repro.util.errors import ConfigurationError, ModelError

ANA = or_name("C=ES;A= ;P=UPC;G=Ana;S=Lopez")
JOAN = or_name("C=ES;A= ;P=UPC;G=Joan;S=Puig")


class TestCommunicatorRegistry:
    def test_register_and_presence(self):
        registry = CommunicatorRegistry()
        registry.register(Communicator("ana", "ws1"))
        registry.register(Communicator("joan", "ws2", present=False))
        assert registry.present_ids() == ["ana"]
        registry.set_presence("joan", True)
        assert registry.present_ids() == ["ana", "joan"]

    def test_duplicate_rejected(self):
        registry = CommunicatorRegistry()
        registry.register(Communicator("ana", "ws1"))
        with pytest.raises(ConfigurationError):
            registry.register(Communicator("ana", "ws9"))

    def test_must_accept_a_medium(self):
        with pytest.raises(ConfigurationError):
            Communicator("ana", "ws1", accepts_media=set())


class TestCommunicationLog:
    def test_queries(self):
        from repro.communication.model import Exchange

        log = CommunicationLog()
        log.record(Exchange("a", "b", "synchronous", "text", 10, 1.0))
        log.record(Exchange("b", "a", "asynchronous", "text", 20, 2.0,
                            CommunicationContext(activity="act1")))
        assert log.between("a", "b") == log.between("b", "a") == 2
        assert log.between("a", "a") == log.between("a", "z") == 0
        assert log.by_mode("synchronous") == 1
        assert log.by_mode("video") == 0
        assert log.in_activity("act1") == 1
        assert log.in_activity("") == 1
        assert log.traffic_matrix()[("a", "b")] == 1
        assert log.volume_bytes() == 30
        assert len(log) == 2

    def test_aggregates_keep_first_occurrence_order(self):
        from repro.communication.model import Exchange

        log = CommunicationLog()
        for sender, receiver, activity, orgs in [
            ("b", "c", "act2", ("gmd", "upc")),
            ("a", "b", "act1", ("upc", "gmd")),
            ("b", "a", "act2", ("gmd", "upc")),
            ("a", "a", "", ("upc", "upc")),
        ]:
            log.record(Exchange(sender, receiver, "synchronous", "text", 1, 0.0,
                                CommunicationContext(activity, "", *orgs)))
        assert list(log.traffic_matrix().items()) == [
            (("b", "c"), 1), (("b", "a"), 1), (("a", "b"), 1), (("a", "a"), 1)
        ]
        assert list(log.activities().items()) == [("act2", 2), ("act1", 1), ("", 1)]
        assert list(log.organisation_pairs().items()) == [
            (("gmd", "upc"), 2), (("upc", "gmd"), 1), (("upc", "upc"), 1)
        ]
        assert log.between("a", "a") == 1
        log.activities().clear()
        assert log.in_activity("act2") == 2

    def test_exchange_is_immutable(self):
        from repro.communication.model import Exchange

        exchange = Exchange("a", "b", "synchronous", "text", 10, 1.0)
        with pytest.raises(AttributeError):
            exchange.size_bytes = 99
        with pytest.raises(AttributeError):
            exchange.extra = 1
        assert exchange.context == CommunicationContext()
        assert exchange.info_objects == ()
        assert exchange == ("a", "b", "synchronous", "text", 10, 1.0,
                            CommunicationContext(), ())

    def test_positional_and_keyword_records_agree(self):
        from repro.analysis.communication import (
            activity_breakdown,
            cross_organisation_flows,
            summarize,
            top_talkers,
        )
        from repro.communication.model import Exchange

        rows = [
            ("a", "b", "synchronous", "text", 10, 1.0,
             CommunicationContext("act1", "review", "upc", "gmd"), ("doc-1",)),
            ("b", "a", "asynchronous", "document", 20, 2.0,
             CommunicationContext(from_org="gmd", to_org="upc"), ()),
            ("a", "c", "synchronous", "text", 5, 3.0, CommunicationContext(), ()),
        ]
        names = ("sender", "receiver", "mode", "media", "size_bytes", "time",
                 "context", "info_objects")
        positional, keyword = CommunicationLog(), CommunicationLog()
        for row in rows:
            positional.record(Exchange(*row))
            keyword.record(Exchange(**dict(zip(names, row))))
        for query in (len, CommunicationLog.traffic_matrix, CommunicationLog.activities,
                      CommunicationLog.organisation_pairs, CommunicationLog.volume_bytes):
            assert query(positional) == query(keyword)
        for log in (positional, keyword):
            assert log.between("a", "b") == 2
            assert log.by_mode("synchronous") == 2
            assert log.in_activity("act1") == 1
            assert log.traffic_matrix() == {("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1}
            assert log.volume_bytes() == 35
        for query in (summarize, top_talkers, cross_organisation_flows, activity_breakdown):
            assert query(positional) == query(keyword)
        summary = summarize(positional)
        assert (summary.exchanges, summary.bytes_total, summary.synchronous,
                summary.asynchronous, summary.distinct_pairs) == (3, 35, 2, 1, 3)


#: person -> organisation; hq and lab may exchange messages, ext may not
CELL_ORGS = {"ana": "hq", "bob": "hq", "cy": "lab", "dee": "lab", "eve": "ext"}
CELL_MODES = ("synchronous", "asynchronous")
#: one step: exchange (sender, receiver, activity, time transparency on,
#: document size), a presence flip, or a direct record of an Exchange
_cell_step = st.one_of(
    st.tuples(
        st.just("exchange"), st.sampled_from(tuple(CELL_ORGS)), st.sampled_from(tuple(CELL_ORGS)),
        st.sampled_from(("", "act")), st.booleans(), st.integers(0, 40),
    ),
    st.tuples(st.sampled_from(("leave", "arrive")), st.sampled_from(tuple(CELL_ORGS))),
    st.tuples(
        st.just("record"), st.sampled_from(tuple(CELL_ORGS)), st.sampled_from(tuple(CELL_ORGS)),
        st.sampled_from(("", "act", "other")), st.sampled_from(CELL_MODES), st.integers(0, 99),
    ),
)


def _cell_env():
    from repro.environment.environment import CSCWEnvironment
    from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
    from repro.org.model import Organisation, Person
    from repro.org.policy import INTERACTION_MESSAGE
    from repro.sim.world import World

    world = World(seed=0)
    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id in sorted(set(CELL_ORGS.values())):
        organisation = Organisation(org_id, org_id.upper())
        for person_id in (p for p, org in CELL_ORGS.items() if org == org_id):
            organisation.add_person(Person(person_id, person_id.title(), org_id))
            world.network.add_node(f"ws-{person_id}", site=org_id)
            env.register_person(Communicator(person_id, f"ws-{person_id}"))
        env.knowledge_base.add_organisation(organisation)
    env.knowledge_base.policies.declare("hq", "lab", {INTERACTION_MESSAGE}, symmetric=True)
    env.register_application(
        AppDescriptor("app", [Q_DIFFERENT_TIME_DIFFERENT_PLACE]), lambda *delivery: None
    )
    env.create_activity("act", "review", members={"ana": "chair", "bob": "member", "cy": "member"})
    return env


def _reference_fold(rows):
    """The log's queries over (sender, receiver, mode, from_org, to_org,
    activity, size) rows, computed by plain loops in row order."""
    rows_of: dict = {}
    for sender, receiver, *_ in rows:
        row = rows_of.setdefault(sender, {})
        row[receiver] = row.get(receiver, 0) + 1
    pairs: dict = {}
    activities: dict = {}
    for _, _, _, from_org, to_org, activity, _ in rows:
        pairs[from_org, to_org] = pairs.get((from_org, to_org), 0) + 1
        activities[activity] = activities.get(activity, 0) + 1
    return {
        "len": len(rows),
        "volume_bytes": sum(row[6] for row in rows),
        "by_mode": {mode: sum(row[2] == mode for row in rows) for mode in CELL_MODES},
        "traffic_matrix": [((s, r), n) for s, row in rows_of.items() for r, n in row.items()],
        "organisation_pairs": list(pairs.items()),
        "activities": list(activities.items()),
        "between": {
            (a, b): sum({row[0], row[1]} == {a, b} for row in rows)
            for a in CELL_ORGS for b in CELL_ORGS
        },
    }


class TestLogCells:
    """The environment folds each delivery into its route's cell; every
    query of the log equals a plain fold of the same exchanges."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_cell_step, max_size=40))
    def test_log_queries_equal_a_reference_fold(self, steps):
        from repro.environment.environment import ExchangeRequest
        from repro.environment.transparency import TransparencyProfile

        env = _cell_env()
        log = env.communication_log
        no_time = TransparencyProfile.all_on().without("time")
        rows = []
        for step in steps:
            if step[0] == "exchange":
                _, sender, receiver, activity, time_on, size = step
                outcome = env.exchange(ExchangeRequest(
                    sender, receiver, "app", "app", {"text": "x" * size},
                    activity_id=activity, profile=None if time_on else no_time,
                ))
                if outcome.delivered:
                    rows.append((sender, receiver, outcome.mode, CELL_ORGS[sender],
                                 CELL_ORGS[receiver], activity, outcome.size_bytes))
            elif step[0] == "record":
                _, sender, receiver, activity, mode, size = step
                context = CommunicationContext(activity, "", CELL_ORGS[sender], CELL_ORGS[receiver])
                log.record(Exchange(sender, receiver, mode, "text", size, 0.0, context))
                rows.append((sender, receiver, mode, CELL_ORGS[sender], CELL_ORGS[receiver],
                             activity, size))
            elif step[0] == "leave":
                env.person_leaves(step[1])
            else:
                env.person_arrives(step[1])
        expected = _reference_fold(rows)
        assert len(log) == expected["len"]
        assert log.volume_bytes() == expected["volume_bytes"]
        assert {mode: log.by_mode(mode) for mode in CELL_MODES} == expected["by_mode"]
        assert log.by_mode("video") == 0
        assert list(log.traffic_matrix().items()) == expected["traffic_matrix"]
        assert list(log.organisation_pairs().items()) == expected["organisation_pairs"]
        assert list(log.activities().items()) == expected["activities"]
        for activity in ("", "act", "other"):
            assert log.in_activity(activity) == dict(expected["activities"]).get(activity, 0)
        for (a, b), count in expected["between"].items():
            assert log.between(a, b) == count, (a, b)


class TestRealTimeSession:
    def test_fan_out(self, world):
        world.add_site("room", ["ws1", "ws2", "ws3"])
        session = RealTimeSession(world, "meet")
        received = {"joan": [], "marta": []}
        session.join("ana", "ws1", lambda s, b: None)
        session.join("joan", "ws2", lambda s, b: received["joan"].append((s, b)))
        session.join("marta", "ws3", lambda s, b: received["marta"].append((s, b)))
        count = session.say("ana", {"text": "hello all"})
        world.run()
        assert count == 2
        assert received["joan"] == [("ana", {"text": "hello all"})]
        assert received["marta"][0][1]["text"] == "hello all"

    def test_leave_stops_delivery(self, world):
        world.add_site("room", ["ws1", "ws2"])
        session = RealTimeSession(world, "meet")
        received = []
        session.join("ana", "ws1", lambda s, b: None)
        session.join("joan", "ws2", lambda s, b: received.append(b))
        session.leave("joan")
        session.say("ana", {"text": "anyone?"})
        world.run()
        assert received == []
        assert session.participants() == ["ana"]

    def test_double_join_rejected(self, world):
        world.add_site("room", ["ws1"])
        session = RealTimeSession(world, "meet")
        session.join("ana", "ws1", lambda s, b: None)
        with pytest.raises(ModelError):
            session.join("ana", "ws1", lambda s, b: None)

    def test_nonparticipant_cannot_speak(self, world):
        world.add_site("room", ["ws1"])
        session = RealTimeSession(world, "meet")
        with pytest.raises(ModelError):
            session.say("ghost", {})

    def test_floor_control(self, world):
        world.add_site("room", ["ws1", "ws2"])
        session = RealTimeSession(world, "meet", floor_controlled=True)
        session.join("ana", "ws1", lambda s, b: None)
        session.join("joan", "ws2", lambda s, b: None)
        assert session.request_floor("ana")
        assert not session.request_floor("joan")
        with pytest.raises(ModelError):
            session.say("joan", {"text": "interrupting"})
        session.say("ana", {"text": "chair speaks"})
        session.release_floor("ana")
        assert session.floor_holder == "joan"

    def test_leaving_holder_passes_floor(self, world):
        world.add_site("room", ["ws1", "ws2"])
        session = RealTimeSession(world, "meet", floor_controlled=True)
        session.join("ana", "ws1", lambda s, b: None)
        session.join("joan", "ws2", lambda s, b: None)
        session.request_floor("ana")
        session.request_floor("joan")
        session.leave("ana")
        assert session.floor_holder == "joan"

    def test_exchanges_logged(self, world):
        world.add_site("room", ["ws1", "ws2"])
        log = CommunicationLog()
        session = RealTimeSession(world, "meet", log=log,
                                  context=CommunicationContext(activity="act1"))
        session.join("ana", "ws1", lambda s, b: None)
        session.join("joan", "ws2", lambda s, b: None)
        session.say("ana", {"text": "hi"})
        assert log.in_activity("act1") == 1
        assert log.traffic_matrix() == {("ana", "joan"): 1}


@pytest.fixture
def mhs_pair(world):
    """One MTA, two registered users with UAs and communicators."""
    world.add_site("bcn", ["mta", "ws-ana", "ws-joan"])
    mta = MessageTransferAgent(world, "mta", "upc", [("es", "", "upc")])
    ua_ana = UserAgent(world, "ws-ana", ANA, "mta")
    ua_joan = UserAgent(world, "ws-joan", JOAN, "mta")
    ua_ana.register()
    ua_joan.register()
    registry = CommunicatorRegistry()
    registry.register(Communicator("ana.lopez", "ws-ana", or_name=ANA))
    registry.register(Communicator("joan.puig", "ws-joan", or_name=JOAN))
    return world, mta, registry, ua_ana, ua_joan


class TestAsyncChannel:
    def test_person_addressed_send(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        log = CommunicationLog()
        channel = AsyncChannel(ua_ana, registry, log)
        channel.send_to_person("ana.lopez", "joan.puig", "hi", "body text")
        world.run()
        inbox = ua_joan.list_inbox()
        assert len(inbox) == 1
        assert log.by_mode("asynchronous") == 1
        assert log.traffic_matrix() == {("ana.lopez", "joan.puig"): 1}

    def test_media_adaptation_to_fax_recipient(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        registry.get("joan.puig").accepts_media = {MEDIA_FAX}
        channel = AsyncChannel(ua_ana, registry)
        channel.send_to_person("ana.lopez", "joan.puig", "fax this", [text_body("hello")])
        world.run()
        bodies = channel_bodies = AsyncChannel(ua_joan, registry).fetch_bodies(
            ua_joan.list_inbox()[0]["sequence"]
        )
        assert bodies[0].media == MEDIA_FAX

    def test_unadaptable_media_rejected(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        from repro.messaging.body_parts import MEDIA_VOICE, binary_body

        registry.get("joan.puig").accepts_media = {MEDIA_VOICE}
        channel = AsyncChannel(ua_ana, registry)
        with pytest.raises(ModelError):
            channel.send_to_person("ana.lopez", "joan.puig", "s", [binary_body(10)])


class TestTimeTransparencyBridge:
    def test_prefers_synchronous_when_present(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        session = RealTimeSession(world, "live")
        heard = []
        session.join("ana.lopez", "ws-ana", lambda s, b: None)
        session.join("joan.puig", "ws-joan", lambda s, b: heard.append(b))
        bridge = TimeTransparencyBridge(registry, session)
        bridge.attach_async_channel("ana.lopez", AsyncChannel(ua_ana, registry))
        result = bridge.converse("ana.lopez", "joan.puig", "quick question")
        world.run()
        assert result.mode == "synchronous"
        assert heard[0]["text"] == "quick question"
        assert ua_joan.list_inbox() == []

    def test_falls_back_to_async_when_absent(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        session = RealTimeSession(world, "live")
        session.join("ana.lopez", "ws-ana", lambda s, b: None)
        bridge = TimeTransparencyBridge(registry, session)
        bridge.attach_async_channel("ana.lopez", AsyncChannel(ua_ana, registry))
        result = bridge.converse("ana.lopez", "joan.puig", "see you later")
        world.run()
        assert result.mode == "asynchronous"
        assert len(ua_joan.list_inbox()) == 1

    def test_falls_back_when_present_but_not_in_session(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        bridge = TimeTransparencyBridge(registry, RealTimeSession(world, "live"))
        bridge.attach_async_channel("ana.lopez", AsyncChannel(ua_ana, registry))
        result = bridge.converse("ana.lopez", "joan.puig", "hello")
        world.run()
        assert result.mode == "asynchronous"

    def test_no_path_raises(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        bridge = TimeTransparencyBridge(registry)
        with pytest.raises(ModelError):
            bridge.converse("ana.lopez", "joan.puig", "lost")

    def test_counters(self, mhs_pair):
        world, mta, registry, ua_ana, ua_joan = mhs_pair
        session = RealTimeSession(world, "live")
        session.join("ana.lopez", "ws-ana", lambda s, b: None)
        session.join("joan.puig", "ws-joan", lambda s, b: None)
        bridge = TimeTransparencyBridge(registry, session)
        bridge.attach_async_channel("ana.lopez", AsyncChannel(ua_ana, registry))
        bridge.converse("ana.lopez", "joan.puig", "sync")
        registry.set_presence("joan.puig", False)
        bridge.converse("ana.lopez", "joan.puig", "async")
        world.run()
        assert bridge.synchronous_sends == 1
        assert bridge.asynchronous_sends == 1
