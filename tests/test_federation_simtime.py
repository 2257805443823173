"""Same seed, same simulated time: federated exchanges pinned by sha256.

A seeded three-domain federation runs every gateway path once or more:
single and batched relays, intra-domain exchanges and runs (with open
and passed deadlines), ghost receivers (lone and inside a batch), a
lossy slow link whose retries race so that a late reply arrives as a
duplicate, a deadline that clamps a relay before its first retry and
another that lands between retries, a dead letter, a breaker-open
failover through the third domain, and the dead letter's ``redrive()``
once the link heals.

The digest covers every :class:`FederatedOutcome` (all outcome fields,
origin, target, hops, attempts and ``latency_s``), each gateway's
``stats()`` with its ``duplicate_replies``/``expired``/``fast_failed``
counters, the final clock and the network RNG's next draw.  A change to
the relay machinery that claims to leave simulated time alone has to
leave every one of those values alone, to the last bit of every float.

A second digest covers the telemetry of the same run: the snapshot of
the one registry the four domains share (counters, gauges and
histograms), with zero-valued counters dropped.  It pins the summed,
shared-registry and re-attached series that one environment cannot
reach.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation.federation import Federation, FederatedOutcome
from repro.information.interchange import FormatConverter, make_common
from repro.obs import MetricsRegistry, Tracer
from repro.sim.network import WAN_LINK, LinkSpec
from repro.sim.world import World

SIMTIME_SHA256 = "da6cfe2929fe875859e399eaaaf1e53dc4efd9cbe7e6fe4adbc131049c96d242"
SIMTIME_TRACED_SHA256 = "4a6a90b14531a998e51e43d5fd554fec06f136836a402235d5255be8b2bb7583"
TELEMETRY_SHA256 = "72b740eac9cab8df58bd068a8498bc13147cf1f33b008813e41b7b4601142d00"

DOMAINS = ("upc", "gmd", "inria")
DOC = {"title": "minutes", "body": "agenda"}
#: a round trip above the 0.5 s retry interval, and loss: retries, late replies
SLOW_LOSSY = LinkSpec(latency_s=0.4, bandwidth_bps=64_000.0, loss=0.3, jitter_s=0.05)
DEAD = LinkSpec(latency_s=0.02, bandwidth_bps=1_000_000.0, loss=1.0)


def _converter() -> FormatConverter:
    def to_common(document):
        return make_common("note", document.get("title", ""), document.get("body", ""))

    def from_common(common):
        return {"title": common["title"], "body": common["body"]}

    return FormatConverter("fmt", to_common, from_common)


def _request(sender: str, receiver: str, title: str = "minutes", **options) -> ExchangeRequest:
    return ExchangeRequest(
        sender, receiver, "app0", "app0", {"title": title, "body": "agenda"}, **options
    )


def _scenario(
    traced: bool, metrics: MetricsRegistry | None = None
) -> tuple[Federation, list[FederatedOutcome]]:
    world = World(seed=5)
    tracer = Tracer(clock=lambda: world.now) if traced else None
    assignment = {name: [f"{name}-{index}" for index in range(3)] for name in DOMAINS}
    federation = Federation.partition(
        world, assignment, metrics=metrics or MetricsRegistry(), tracer=tracer
    )
    federation.register_application(
        AppDescriptor(
            name="app0", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter=_converter()
        ),
        lambda person, document, info: None,
    )
    outcomes: list[FederatedOutcome] = []

    def one(sender: str, receiver: str, **options) -> None:
        outcomes.append(federation.federated_exchange(_request(sender, receiver, **options)))

    def many(pairs: list[tuple[str, str]], **options) -> None:
        outcomes.extend(federation.federated_exchange_many([
            _request(sender, receiver, title=f"t{index}", **options)
            for index, (sender, receiver) in enumerate(pairs)
        ]))

    # single relays, an intra-domain exchange and a lone ghost receiver
    one("upc-0", "gmd-0")
    one("upc-1", "upc-2")
    one("gmd-1", "inria-0")
    one("upc-0", "ghost")
    # intra-domain deadlines: one still open, one already passed
    one("upc-2", "upc-0", deadline=world.now + 5.0)
    one("upc-2", "upc-1", deadline=world.now)
    # a batch: a relayed run of three, an intra run of two, a ghost, a relay
    many([
        ("upc-0", "gmd-0"), ("upc-1", "gmd-1"), ("upc-2", "gmd-2"),
        ("upc-0", "upc-1"), ("upc-1", "upc-2"),
        ("upc-0", "ghost"),
        ("upc-0", "inria-0"),
    ])
    world.run_for(1.0)
    # a lossy link slower than the retry interval: retries, late replies
    federation.set_pair_link("upc", "inria", SLOW_LOSSY)
    for index in range(6):
        one(f"upc-{index % 3}", f"inria-{index % 3}")
    many([("upc-0", "inria-1"), ("upc-1", "inria-2")])
    world.run_for(8.0)
    # a dead link: a deadline before the first retry, one between retries,
    # then a relay that exhausts its budget and opens the breaker
    federation.set_pair_link("upc", "gmd", DEAD)
    one("upc-0", "gmd-0", deadline=world.now + 0.3)
    one("upc-0", "gmd-0", deadline=world.now + 1.1)
    one("upc-1", "gmd-1")
    # the breaker is open: fail over through inria
    one("upc-2", "gmd-2")
    many([("upc-0", "gmd-1"), ("upc-1", "gmd-2")], deadline=world.now + 20.0)
    world.run_for(8.0)
    # heal and redrive the dead letter
    federation.set_pair_link("upc", "gmd", WAN_LINK)
    federation.set_pair_link("upc", "inria", WAN_LINK)
    assert federation.domain("upc").gateway_to("gmd").redrive() == 1
    world.run_for(10.0)
    one("upc-2", "gmd-0")
    many([("gmd-0", "upc-0"), ("gmd-1", "upc-1"), ("gmd-2", "ghost")])
    world.run_for(10.0)
    return federation, outcomes


def _digest(federation: Federation, outcomes: list[FederatedOutcome]) -> str:
    digest = hashlib.sha256()
    for result in outcomes:
        outcome = list(result.outcome)
        digest.update(repr((
            outcome, result.origin, result.target, result.hops,
            result.attempts, result.latency_s,
        )).encode())
    for domain in federation.domains():
        for peer, gateway in sorted(domain.gateways.items()):
            digest.update(repr((
                domain.name, peer, gateway.stats(), gateway.duplicate_replies,
                gateway.expired, gateway.fast_failed,
            )).encode())
    world = federation.world
    digest.update(repr((world.now, world.network.rng.random())).encode())
    return digest.hexdigest()


def test_scenario_covers_every_gateway_path():
    federation, outcomes = _scenario(traced=False)
    upc = federation.domain("upc")
    codes = [result.reason_code for result in outcomes]
    assert codes.count("unknown-receiver") == 3
    assert codes.count("deadline-exceeded") == 3
    assert codes.count("gateway-dead-letter") == 1
    assert any(result.attempts > 1 and result.delivered for result in outcomes)
    assert any("relay" in [hop.role for hop in result.hops] for result in outcomes)
    assert any(result.target == result.origin for result in outcomes)
    assert upc.gateway_to("inria").duplicate_replies > 0
    assert upc.gateway_to("inria").retries > 0
    assert upc.gateway_to("gmd").expired == 2
    assert [letter.redriven for letter in upc.gateway_to("gmd").dead_letters] == [True]
    assert upc.gateway_to("gmd").stats()["dead_letters"] == 0


@pytest.mark.parametrize(
    ("traced", "expected"),
    [(False, SIMTIME_SHA256), (True, SIMTIME_TRACED_SHA256)],
    ids=["untraced", "traced"],
)
def test_simulated_time_is_pinned(traced, expected):
    assert _digest(*_scenario(traced)) == expected


def test_federated_telemetry_is_pinned():
    metrics = MetricsRegistry()
    _scenario(traced=False, metrics=metrics)
    snapshot = metrics.snapshot()
    snapshot["counters"] = {
        name: value for name, value in snapshot["counters"].items() if value
    }
    encoded = json.dumps(snapshot, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == TELEMETRY_SHA256
