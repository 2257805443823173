"""End-to-end tests for the message handling system on the simulator."""

from __future__ import annotations

import pytest

from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import or_name
from repro.messaging.reports import (
    REASON_HOP_LIMIT,
    REASON_NO_ROUTE,
    REASON_TRANSFER_FAILURE,
    REASON_UNKNOWN_RECIPIENT,
    DeliveryReport,
    NonDeliveryReport,
)
from repro.messaging.ua import UserAgent
from repro.sim.network import LinkSpec

ANA = or_name("C=ES;A= ;P=UPC;G=Ana;S=Lopez")
WOLF = or_name("C=DE;A= ;P=GMD;G=Wolf;S=Prinz")
TOM = or_name("C=UK;A= ;P=Lancaster;G=Tom;S=Rodden")


@pytest.fixture
def mhs(world):
    """Three sites, one MTA each, fully routed; three registered users."""
    world.add_site("bcn", ["mta-upc", "ws-ana"])
    world.add_site("bonn", ["mta-gmd", "ws-wolf"])
    world.add_site("lancs", ["mta-lancs", "ws-tom"])
    upc = MessageTransferAgent(world, "mta-upc", "upc", [("es", "", "upc")])
    gmd = MessageTransferAgent(world, "mta-gmd", "gmd", [("de", "", "gmd")])
    lancs = MessageTransferAgent(world, "mta-lancs", "lancs", [("uk", "", "lancaster")])
    for mta in (upc, gmd, lancs):
        for other in (upc, gmd, lancs):
            if other is not mta:
                mta.add_peer(other.name, other.node)
    upc.routing.add_route("de", "*", "*", "gmd")
    upc.routing.add_route("uk", "*", "*", "lancs")
    gmd.routing.add_route("es", "*", "*", "upc")
    gmd.routing.add_route("uk", "*", "*", "lancs")
    lancs.routing.add_route("es", "*", "*", "upc")
    lancs.routing.add_route("de", "*", "*", "gmd")
    ana = UserAgent(world, "ws-ana", ANA, "mta-upc")
    wolf = UserAgent(world, "ws-wolf", WOLF, "mta-gmd")
    tom = UserAgent(world, "ws-tom", TOM, "mta-lancs")
    for ua in (ana, wolf, tom):
        ua.register()
    return world, {"upc": upc, "gmd": gmd, "lancs": lancs}, {"ana": ana, "wolf": wolf, "tom": tom}


class TestDelivery:
    def test_cross_domain_delivery(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF], "greetings", "hello from Barcelona")
        world.run()
        inbox = uas["wolf"].list_inbox()
        assert len(inbox) == 1
        assert inbox[0]["subject"] == "greetings"
        envelope = uas["wolf"].fetch(inbox[0]["sequence"])
        assert envelope.content.body_parts[0].content["text"] == "hello from Barcelona"

    def test_trace_records_both_mtas(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF], "s", "b")
        world.run()
        envelope = uas["wolf"].fetch(uas["wolf"].list_inbox()[0]["sequence"])
        assert [t.mta for t in envelope.trace] == ["upc", "gmd"]

    def test_multi_recipient_split(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF, TOM], "to both", "body")
        world.run()
        assert len(uas["wolf"].list_inbox()) == 1
        assert len(uas["tom"].list_inbox()) == 1

    def test_local_delivery_same_domain(self, mhs):
        world, mtas, uas = mhs
        maria = or_name("C=ES;A= ;P=UPC;G=Maria;S=Serra")
        ua_maria = UserAgent(world, "ws-ana", maria, "mta-upc")
        ua_maria.register()
        uas["ana"].send([maria], "intra", "same site")
        world.run()
        assert len(ua_maria.list_inbox()) == 1
        assert mtas["upc"].relayed == 0  # never left the MTA

    def test_delivery_report_round_trip(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF], "important", "check", delivery_report=True)
        world.run()
        reports = uas["ana"].unread_reports()
        assert len(reports) == 1
        assert isinstance(reports[0], DeliveryReport)

    def test_deferred_delivery(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF], "later", "after t=50", deferred_until=50.0)
        world.run_for(10.0)
        assert uas["wolf"].list_inbox() == []
        world.run_for(60.0)
        world.run()
        assert len(uas["wolf"].list_inbox()) == 1

    def test_deferred_mail_still_pays_priority_delay(self, mhs):
        # regression: a deferred envelope used to jump straight to
        # _process at release time, skipping its per-hop priority delay
        from repro.messaging.envelope import PRIORITY_NORMAL
        from repro.messaging.mta import PRIORITY_DELAYS

        world, mtas, uas = mhs
        maria = or_name("C=ES;A= ;P=UPC;G=Maria;S=Serra")
        ua_maria = UserAgent(world, "ws-ana", maria, "mta-upc")
        ua_maria.register()
        world.run()
        deliveries = []
        mtas["upc"].add_delivery_hook(lambda mailbox, stored: deliveries.append(stored))
        uas["ana"].send([maria], "later", "after t=50", deferred_until=50.0)
        world.run()
        assert len(deliveries) == 1
        released_at = 50.0 + PRIORITY_DELAYS[PRIORITY_NORMAL]
        assert deliveries[0].delivered_at == pytest.approx(released_at)


class TestNonDelivery:
    def test_unknown_recipient_ndr(self, mhs):
        world, mtas, uas = mhs
        ghost = or_name("C=DE;A= ;P=GMD;G=No;S=Body")
        uas["ana"].send([ghost], "void", "hello?")
        world.run()
        reports = uas["ana"].unread_reports()
        assert len(reports) == 1
        assert isinstance(reports[0], NonDeliveryReport)
        assert reports[0].reason == REASON_UNKNOWN_RECIPIENT

    def test_no_route_ndr(self, mhs):
        world, mtas, uas = mhs
        martian = or_name("C=MARS;A= ;P=OLYMPUS;S=Marvin")
        uas["ana"].send([martian], "far", "too far")
        world.run()
        reports = uas["ana"].unread_reports()
        assert reports[0].reason == REASON_NO_ROUTE

    def test_transfer_failure_ndr_when_peer_dead(self, mhs):
        world, mtas, uas = mhs
        world.network.node("mta-gmd").crash()
        uas["ana"].send([WOLF], "s", "b")
        world.run()
        reports = uas["ana"].unread_reports()
        assert reports[0].reason == REASON_TRANSFER_FAILURE

    def test_transient_outage_retried_successfully(self, mhs):
        world, mtas, uas = mhs
        world.failures.crash_at("mta-gmd", at=world.now, duration=3.0)
        uas["ana"].send([WOLF], "s", "b")
        world.run()
        assert len(uas["wolf"].list_inbox()) == 1
        assert uas["ana"].unread_reports() == []

    def test_routing_loop_produces_hop_limit_ndr(self, mhs):
        world, mtas, uas = mhs
        # Misconfigure: upc routes FR to gmd, gmd routes FR back to upc.
        mtas["upc"].routing.add_route("fr", "*", "*", "gmd")
        mtas["gmd"].routing.add_route("fr", "*", "*", "upc")
        pierre = or_name("C=FR;A= ;P=INRIA;S=Pierre")
        uas["ana"].send([pierre], "loop", "round and round")
        world.run()
        reports = uas["ana"].unread_reports()
        assert reports[0].reason == REASON_HOP_LIMIT

    def test_no_report_storms(self, mhs):
        """NDRs about undeliverable reports are suppressed."""
        world, mtas, uas = mhs
        # Ana sends to an unknown GMD user from an unregistered originator
        # mailbox: the NDR back to her is deliverable, so just check the
        # system quiesces with a bounded number of reports.
        ghost = or_name("C=DE;A= ;P=GMD;G=No;S=Body")
        uas["ana"].send([ghost], "void", "x")
        world.run()
        total_reports = sum(m.reports_issued for m in mtas.values())
        assert total_reports == 1


class TestTransferExactlyOnce:
    """A transfer is retried until answered, and delivered exactly once."""

    #: one-way latency: a reply takes longer than the first retry interval
    SLOW = LinkSpec(latency_s=1.2, bandwidth_bps=1e9)

    def _send_over_slow_link(self, mhs):
        world, mtas, uas = mhs
        world.network.set_link("mta-upc", "mta-gmd", self.SLOW)
        reports: list[dict] = []
        for mta in mtas.values():
            mta.add_report_hook(reports.append)
        uas["ana"].send([WOLF], "slow", "over a slow link")
        return world, mtas, reports

    def test_slow_lossless_link_delivers_once(self, mhs):
        world, mtas, reports = self._send_over_slow_link(mhs)
        world.run()
        assert mtas["upc"].rpc.requests_sent > 1  # the transfer was retried
        assert mtas["gmd"].delivered == 1
        assert len(mtas["gmd"].store.summary_documents(WOLF.mailbox)) == 1
        assert reports == []

    def test_dead_peer_gets_one_ndr_and_no_delivery(self, mhs):
        world, mtas, reports = self._send_over_slow_link(mhs)
        world.network.node("mta-gmd").crash()
        world.run()
        assert mtas["gmd"].delivered == 0
        assert [report["reason"] for report in reports] == [REASON_TRANSFER_FAILURE]


class TestMailboxManagement:
    def test_register_wrong_domain_rejected(self, mhs):
        world, mtas, uas = mhs
        from repro.util.errors import MessagingError

        with pytest.raises(MessagingError):
            mtas["upc"].register_mailbox(WOLF)

    def test_delete_from_store_via_ua(self, mhs):
        world, mtas, uas = mhs
        uas["ana"].send([WOLF], "s", "b")
        world.run()
        seq = uas["wolf"].list_inbox()[0]["sequence"]
        uas["wolf"].delete(seq)
        assert uas["wolf"].list_inbox() == []

    def test_delivery_hook_fires(self, mhs):
        world, mtas, uas = mhs
        seen = []
        mtas["gmd"].add_delivery_hook(lambda mailbox, stored: seen.append(mailbox))
        uas["ana"].send([WOLF], "s", "b")
        world.run()
        assert seen == ["wolf.prinz"]
