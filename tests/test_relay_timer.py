"""A gateway relay keeps one timer and no per-attempt RPC timer.

The relay timer is armed for whichever comes first of the next retry and
the close of the budget window, and is re-armed when it fires.  Attempts
go out with no RPC timer of their own: the reply window of every attempt
is the relay's budget window, which the gateway closes by dropping the
attempts' outstanding request ids.
"""

from __future__ import annotations

import pytest

from repro.federation.gateway import REASON_RELAY_DEADLINE, Gateway
from repro.obs.metrics import MetricsRegistry
from repro.sim.network import WAN_LINK, LinkSpec
from repro.sim.transport import RequestReply

#: the default gateway budget: attempts at 0, 0.5, 1.5 and 3.5 s, parked at 7.5 s
BUDGET_S = 7.5


def _gateway(world, link=LinkSpec(latency_s=0.01, bandwidth_bps=1e9)):
    network = world.network
    network.add_node("src", site="s1")
    network.add_node("dst", site="s2")
    network.set_link("src", "dst", link)
    rpc_src = RequestReply(network, "src", port="gateway")
    rpc_dst = RequestReply(network, "dst", port="gateway")
    rpc_dst.serve("relay", lambda payload: {"n": payload["n"]})
    return Gateway(rpc_src, "a", "b", "dst"), rpc_src


def _set_latency_at(world, at, latency_s):
    world.engine.schedule(
        at,
        lambda: world.network.set_link(
            "src", "dst", LinkSpec(latency_s=latency_s, bandwidth_bps=1e9)
        ),
    )


def test_lossless_relay_schedules_three_events_and_cancels_one(world):
    """Request packet, reply packet and the relay timer; the timer is the
    one cancellation, when the reply settles the relay."""
    metrics = MetricsRegistry()
    world.engine.attach_metrics(metrics)
    gateway, rpc = _gateway(world)
    replies: list = []

    def counts():
        counters = metrics.snapshot()["counters"]
        return counters.get("sim.engine.scheduled", 0), counters.get("sim.engine.cancelled", 0)

    scheduled, cancelled = counts()
    gateway.relay({"n": 1}, lambda reply, attempts: replies.append((reply, attempts)))
    world.run()
    assert replies == [({"n": 1}, 1)]
    assert counts() == (scheduled + 3, cancelled + 1)
    assert rpc._pending == {}
    assert rpc.timeouts == 0


def test_late_reply_of_the_first_attempt_counts_as_duplicate(world):
    """The link slows after admission, so the first attempt's reply
    crawls; the retry's reply settles the relay and the first attempt's
    reply, still inside the window, is a duplicate."""
    gateway, rpc = _gateway(world)
    _set_latency_at(world, 0.0, 3.0)
    _set_latency_at(world, 0.25, 0.05)
    replies: list = []
    gateway.relay({"n": 2}, lambda reply, attempts: replies.append((world.now, attempts)))
    world.run_for(BUDGET_S + 1.0)
    assert replies == [(pytest.approx(0.6), 2)]
    assert gateway.delivered == 1
    assert gateway.retries == 1
    assert gateway.duplicate_replies == 1
    assert rpc._pending == {}


def test_first_retry_waits_for_the_payloads_round_trip(world):
    """A payload that takes longer than ``retry_s`` to cross the link and
    be answered is not resent while it is still on its way."""
    gateway, rpc = _gateway(world, WAN_LINK)
    round_trip = 2 * WAN_LINK.latency_s + 2 * WAN_LINK.jitter_s + 40_128 / WAN_LINK.bandwidth_bps
    assert round_trip > 0.5
    replies: list = []
    gateway.relay(
        {"n": 6, "blob": "x" * 40_000}, lambda reply, attempts: replies.append(attempts)
    )
    world.run()
    assert replies == [1]
    assert (gateway.retries, rpc.requests_sent) == (0, 1)


def test_no_pending_request_outlives_the_budget_window(world):
    """A reply later than the window is ignored, and the window's close
    leaves the endpoint's pending table empty."""
    gateway, rpc = _gateway(world)
    _set_latency_at(world, 0.0, BUDGET_S + 0.5)
    _set_latency_at(world, 0.25, 0.05)
    gateway.relay({"n": 3}, lambda reply, attempts: None)
    world.run_for(1.0)
    assert gateway.delivered == 1
    # the first attempt is still out: its reply window stays open
    assert len(rpc._pending) == 1
    world.run_for(BUDGET_S)
    assert rpc._pending == {}
    world.run_for(5.0)
    assert gateway.duplicate_replies == 0


def test_parked_relay_leaves_nothing_pending(world):
    gateway, rpc = _gateway(world)
    world.network.node("dst").crash()
    letters: list = []
    gateway.relay({"n": 4}, lambda reply, attempts: None, letters.append)
    world.run_for(BUDGET_S - 0.01)
    assert len(rpc._pending) == 4 and letters == []
    world.run_for(0.02)
    assert [letter.attempts for letter in letters] == [4]
    assert rpc._pending == {}
    assert world.engine.pending_count == 0


#: a deadline that ``now + (deadline - now)`` rounds an ulp below from 0.1 s
DEADLINE_S = 0.407


@pytest.mark.parametrize(
    "retry_s, admit_at",
    [
        (0.1, 0.0),  # the window's close is armed by the retry at 0.1 s
        (0.5, 0.1),  # ... at admission, at 0.1 s, before the first retry
    ],
)
def test_deadline_clamped_close_expires_whatever_the_rounding(world, retry_s, admit_at):
    """The close is armed from an instant where ``now + (deadline - now)``
    rounds below the deadline; the relay still expires, not parks."""
    assert 0.1 + (DEADLINE_S - 0.1) < DEADLINE_S
    network = world.network
    network.add_node("src", site="s1")
    network.add_node("dst", site="s2")
    network.set_link("src", "dst", LinkSpec(latency_s=0.01, bandwidth_bps=1e9))
    rpc = RequestReply(network, "src", port="gateway")
    gateway = Gateway(rpc, "a", "b", "dst", retry_s=retry_s, max_attempts=2, backoff=10.0)
    network.node("dst").crash()
    letters: list = []
    world.engine.schedule(
        admit_at,
        lambda: gateway.relay(
            {"n": 5}, lambda reply, attempts: None, letters.append, deadline=DEADLINE_S
        ),
    )
    world.run_for(2.0)
    assert [letter.reason for letter in letters] == [REASON_RELAY_DEADLINE]
    assert (gateway.expired, gateway.dead_letters) == (1, [])
    assert rpc._pending == {}
