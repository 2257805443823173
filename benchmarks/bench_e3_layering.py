"""E3 — Figure 4: the CSCW environment layered on the ODP platform.

Paper claim (section 6.2): "The CSCW environment is located between the
basic ODP environment and CSCW applications ... a CSCW environment
augments ODP with CSCW specific functions"; open CSCW systems are a
subset of ODP systems.  The layering adds the CSCW functions (policy,
translation, logging, scoping) on top of ODP invocation.

Regenerated figure: the ``benchmark`` fixture's per-op timings of (a) a
raw ODP channel invocation and (b) the same logical delivery through
the environment's exchange primitive, a workstation reaching the
environment server over the simulated WAN, and the subset relation
checked structurally.
"""

from __future__ import annotations

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.environment.environment import ExchangeRequest
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.odp.objects import ComputationalObject, signature
from repro.sim.world import World

from bench_common import build_environment


def _odp_setup():
    world = World(seed=2)
    world.add_site("hq", ["server", "client"])
    capsule = Capsule(world.network, "server")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    sink = ComputationalObject("sink")
    sink.offer(signature("sink", "put"), {"put": lambda args: {"ok": True}})
    refs = capsule.deploy(sink)
    channel = factory.bind("client", refs["sink"])
    return world, channel


def _env_setup():
    world = World(seed=2)
    env = build_environment(world, n_people=2, orgs=["upc", "gmd"])
    ConferencingSystem().attach(env, exporter_org="upc")
    MessageSystem().attach(env, exporter_org="gmd")
    return world, env


def test_e3_raw_odp_invocation(benchmark):
    world, channel = _odp_setup()

    def invoke():
        return channel.call(world, "put", {"value": 1})

    result = benchmark(invoke)
    assert result == {"ok": True}


def test_e3_environment_exchange(benchmark):
    world, env = _env_setup()

    def exchange():
        return env.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "message-system",
            {"topic": "t", "entry": "e", "conference": "c", "author": "p0"},
        ))

    outcome = benchmark(exchange)
    assert outcome.delivered


def test_e3_distributed_environment_access(benchmark):
    """Figure 4 end to end: a workstation reaches the environment server
    over the ODP platform, paying real (simulated) WAN latency."""
    from repro.communication.model import Communicator
    from repro.environment.server import EnvironmentClient, EnvironmentServer
    from repro.odp.binding import BindingFactory
    from repro.odp.node_mgmt import Capsule

    world = World(seed=4)
    world.add_site("datacenter", ["env-node"])
    world.add_site("office", ["ws0", "ws1"])
    env = build_environment(world, n_people=0)
    from repro.org.model import Person

    for pid, node in [("p0", "ws0"), ("p1", "ws1")]:
        env.knowledge_base.organisation("upc").add_person(Person(pid, pid, "upc"))
        env.register_person(Communicator(pid, node))
    ConferencingSystem().attach(env)
    MessageSystem().attach(env)
    capsule = Capsule(world.network, "env-node")
    factory = BindingFactory(world.network)
    factory.register_capsule(capsule)
    ref = EnvironmentServer(env).deploy(capsule)
    client = EnvironmentClient(world, factory, "ws0", ref)
    document = {"topic": "t", "entry": "e", "conference": "c", "author": "p0"}

    def remote_exchange():
        start = world.now
        outcome = client.exchange(ExchangeRequest(
            "p0", "p1", "conferencing", "message-system", document
        ))
        return outcome, world.now - start

    outcome, simulated_latency = benchmark(remote_exchange)
    assert outcome.delivered
    print(f"\nE3c: workstation -> environment server over WAN: "
          f"{simulated_latency * 1000:.0f} ms simulated round trip "
          f"(the Figure 4 layering, engineering-real)")
    assert simulated_latency >= 0.16  # two WAN crossings minimum


def test_e3_cscw_env_is_subset_of_odp(benchmark):
    """Structural check: every environment service is an ODP-compatible
    construct (trades through the trader, names through ODP refs)."""
    world, env = _env_setup()

    from repro.odp.objects import InterfaceRef

    def export_and_import():
        offer = env.trader.export(
            "cscw-environment", InterfaceRef("env-node", "environment", "exchange")
        )
        found = env.trader.import_one("cscw-environment")
        env.trader.withdraw(offer.offer_id)
        return found

    found = benchmark(export_and_import)
    assert found.service_type == "cscw-environment"
    print("\nE3b: the CSCW environment itself is tradeable as an ODP service "
          "(open CSCW systems ⊆ open distributed systems)")
