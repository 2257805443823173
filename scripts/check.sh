#!/usr/bin/env sh
# One-command tier-1 verification (tox-free): unit/integration tests,
# the benchmark harness's own tests, whole-tree bytecode compilation, a
# doctest pass over the observability and utility packages, and a smoke
# run of the exchange-throughput bench (exercises the fast path end to
# end without timing asserts).
# Run from the repository root:
#
#   sh scripts/check.sh
#
set -e

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== pytest (tier-1) =="
python -m pytest -x -q

echo "== pytest (benchmark harness: quick runs of every workload, outcome oracle) =="
python -m pytest -q benchmarks/harness

echo "== compileall src =="
python -m compileall -q src

echo "== doctests (src/repro/obs, src/repro/util) =="
python -m pytest -q --doctest-modules src/repro/obs src/repro/util

echo "== bench_e7 throughput (smoke) =="
python benchmarks/bench_e7_throughput.py --smoke

echo "== federation smoke (2-domain round trip) =="
python - <<'EOF'
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.sim.world import World

world = World(seed=42)
federation = Federation.partition(world, {"upc": ["ana"], "gmd": ["bob"]})
inbox = []
for index, name in enumerate(("editor", "reviewer")):
    key = f"fmt{index}"
    converter = FormatConverter(
        key,
        lambda doc, key=key: make_common("note", doc[f"{key}-title"], doc[f"{key}-body"]),
        lambda common, key=key: {f"{key}-title": common["title"], f"{key}-body": common["body"]},
    )
    federation.register_application(
        AppDescriptor(name=name, quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter=converter),
        lambda person, doc, info: inbox.append((person, doc)),
    )
outcome = federation.federated_exchange(
    "ana", "bob", "editor", "reviewer", {"fmt0-title": "ping", "fmt0-body": "x"}
)
assert outcome.delivered and outcome.cross_domain, outcome
assert [hop.role for hop in outcome.hops] == ["origin", "deliver", "reply"]
assert inbox == [("bob", {"fmt1-title": "ping", "fmt1-body": "x"})], inbox
back = federation.federated_exchange(
    "bob", "ana", "reviewer", "editor", {"fmt1-title": "pong", "fmt1-body": "y"}
)
assert back.delivered and back.origin == "gmd" and back.target == "upc", back
print(f"round trip ok: {outcome.latency_s*1000:.1f} ms out, {back.latency_s*1000:.1f} ms back")
EOF

echo "== bench_e8 federation (quick) =="
python benchmarks/bench_e8_federation.py --quick

echo "== federation fast-path guard (batched cross-domain cost) =="
python - <<'EOF'
# Regression fence for the federated batch fast path: the quick E12 run
# above wrote BENCH_federation.json; a change that reopens the
# cross-domain gap (per-request relays, re-resolved homes, unbatched
# intra runs) fails here, not in a full bench run someone forgets.
import json

with open("BENCH_federation.json", encoding="utf-8") as handle:
    blob = json.load(handle)
for sweep in blob["sweeps"]:
    if "cross_eps" not in sweep:
        continue
    n = sweep["domains"]
    ratio = sweep["cross_over_intra_wall"]
    assert ratio <= 2.0, (
        f"{n}-domain batched cross exchange costs {ratio}x a per-request "
        "intra exchange (budget: 2.0x)"
    )
    assert sweep["batch_speedup"] >= 2.0, (
        f"{n}-domain batch speedup {sweep['batch_speedup']}x under 2.0x"
    )
    # one batched relay per (pair, run): n pairs -> n relays
    assert sweep["cross_batch_relays"] == n, sweep["cross_batch_relays"]
    # exactly two home lookups per batched request (one per endpoint)
    assert sweep["home_hits_per_batch_request"] == 2.0, (
        sweep["home_hits_per_batch_request"]
    )
    print(f"  {n} domains: {ratio}x intra wall, "
          f"{sweep['batch_speedup']}x per-request cross, "
          f"{sweep['cross_batch_relays']} batched relays, "
          f"{sweep['home_hits_per_batch_request']} home hits/request")
print("fast-path guard ok")
EOF

echo "== resilience smoke (failover across an open breaker) =="
python - <<'EOF'
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.sim.world import World

world = World(seed=42)
federation = Federation.partition(
    world, {"upc": ["ana"], "gmd": ["bob"], "inria": ["eva"]}
)
inbox = []
federation.register_application(
    AppDescriptor(name="editor", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
    lambda person, doc, info: inbox.append((person, doc)),
)
# Trip the direct upc->gmd breaker: the exchange must route via inria.
federation.domain("upc").gateway_to("gmd").breaker.force_open()
outcome = federation.federated_exchange(
    "ana", "bob", "editor", "editor", {"title": "ping", "body": "x"}
)
assert outcome.delivered, outcome
assert [hop.role for hop in outcome.hops] == ["origin", "relay", "deliver", "reply"], outcome.hops
assert outcome.hops[1].domain == "inria", outcome.hops
assert inbox == [("bob", {"title": "ping", "body": "x"})], inbox
# Deadlines propagate: an already-expired exchange fails fast, reason-coded.
expired = federation.federated_exchange(
    "ana", "bob", "editor", "editor", {"title": "late", "body": "y"},
    deadline=world.now - 1.0,
)
assert not expired.delivered and expired.reason_code == "deadline-exceeded", expired
print(f"failover ok via {outcome.hops[1].domain}: {outcome.latency_s*1000:.1f} ms")
EOF

echo "== bench_e9 resilience (quick) =="
python benchmarks/bench_e9_resilience.py --quick

echo "== obs smoke (one connected trace across a failover exchange) =="
python - <<'EOF'
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.obs import EventLog, TraceAnalyzer, Tracer, chrome_trace_json
from repro.sim.world import World
import json

world = World(seed=42)
tracer = Tracer()
events = EventLog()
federation = Federation.partition(
    world, {"upc": ["ana"], "gmd": ["bob"], "inria": ["eva"]},
    tracer=tracer, events=events,
)
federation.register_application(
    AppDescriptor(name="editor", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
    lambda person, doc, info: None,
)
# Trip the direct breaker so the relay reroutes via inria: the trace
# must still come back as ONE connected tree under the origin's id.
federation.domain("upc").gateway_to("gmd").breaker.force_open()
outcome = federation.federated_exchange(
    "ana", "bob", "editor", "editor", {"title": "ping", "body": "x"}
)
assert outcome.delivered, outcome
analyzer = TraceAnalyzer.from_tracers(tracer)
[trace_id] = analyzer.trace_ids()
assert outcome.outcome.trace_id == trace_id, (outcome.outcome.trace_id, trace_id)
assert analyzer.is_connected(trace_id), analyzer.summary()
path = [span["name"] for span in analyzer.critical_path(trace_id)]
assert path[0] == "federation.exchange" and "federation.forward" in path, path
coverage = analyzer.critical_path_coverage(trace_id)
assert coverage >= 0.95, coverage
blob = json.loads(chrome_trace_json(tracer.finished()))
assert any(event["ph"] == "X" for event in blob["traceEvents"])
assert events.events(kind="breaker-open"), events.kinds()
print(f"trace {trace_id} connected: {len(path)} hops on the critical "
      f"path, coverage {coverage:.2f}, events {events.kinds()}")
EOF

echo "== determinism guard (no wall clock outside obs wall mode) =="
python - <<'EOF'
# Simulated time is the repo's contract: the only sanctioned wall-clock
# reads live in repro/obs (Tracer(wall=True) profiling mode).  A stray
# time.time()/datetime.now() anywhere else silently breaks seeded
# reproducibility, so fail loudly here.
import pathlib
import re
import sys

FORBIDDEN = re.compile(r"time\.time\(|datetime\.now\(")
hits = []
for path in sorted(pathlib.Path("src").rglob("*.py")):
    if "obs" in path.parts:
        continue  # wall-mode tracing is the sanctioned escape hatch
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if FORBIDDEN.search(line):
            hits.append(f"{path}:{number}: {line.strip()}")
print(f"scanned src/ for wall-clock reads: {len(hits)} hits")
if hits:
    print("\n".join(hits))
    sys.exit(1)
EOF

echo "== bench_e10 observability (quick) =="
python benchmarks/bench_e10_observability.py --quick

echo "== control smoke (one burn -> one action -> one reversal) =="
python - <<'EOF'
# Deterministic closed loop: starve an SLO until it burns (one edge),
# watch the control plane tighten the shed limit once, then feed it a
# clean window and watch the single reversal restore the exact limit.
from repro.control import ControlPlane, ControlPolicy
from repro.obs import EventLog, MetricsRegistry, RatioSLO, SLOEngine
from repro.obs.events import KIND_CONTROL_ACTION, KIND_CONTROL_REVERT
from repro.obs.tracing import Tracer
from repro.sim.world import World


class Shedder:
    shed_limit = 10
    def set_shed_limit(self, limit):
        self.shed_limit = limit


world = World(seed=7)
metrics, events = MetricsRegistry(), EventLog()
slo = SLOEngine(world.engine, metrics, events=events, sample_period_s=0.5).declare(
    RatioSLO("delivery", "good", "total", target=0.9, window_s=4.0)
)
slo.start()
shedder = Shedder()
plane = ControlPlane(
    world.engine,
    policy=ControlPolicy(tick_s=0.25, cooldown_s=1.0),
    metrics=metrics, events=events, tracer=Tracer(),
).watch_slo(slo)
plane.manage_environment("env", shedder)
plane.start()
for _ in range(4):  # burn: a window of pure errors
    metrics.inc("total")
    world.run_for(0.5)
assert plane.burning == {"delivery"} and shedder.shed_limit == 5, plane.describe()
for _ in range(12):  # recovery: a clean stretch longer than the window
    metrics.inc("good"); metrics.inc("total")
    world.run_for(0.5)
assert plane.burning == set() and shedder.shed_limit == 10, plane.describe()
assert plane.actions_applied == 1 and plane.actions_reverted == 1, plane.describe()
assert plane.fully_reverted()
[apply_event] = events.events(kind=KIND_CONTROL_ACTION)
[revert_event] = events.events(kind=KIND_CONTROL_REVERT)
assert apply_event.trace_id and revert_event.trace_id
print(f"control loop ok: burn at t={apply_event.time:.2f}s applied "
      f"{apply_event.attrs['action']}, reverted at t={revert_event.time:.2f}s")
EOF

echo "== bench_e11 control (quick) =="
python benchmarks/bench_e11_control.py --quick

echo "== bench_e12 shard scale (quick) =="
python benchmarks/bench_e12_shard.py --quick

echo "== mediation smoke (multi-hop plan + negotiated downgrade) =="
python - <<'EOF'
# The PR 8 tentpole, end to end: four apps on a mediated environment,
# a mediator-only format reaching the message system through a
# synthesized multi-hop plan, and a fidelity floor either accepting a
# negotiated downgrade or failing with the structured reason code.
from repro.apps.document import DocumentProcessor
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import REASON_FIDELITY, CSCWEnvironment
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.mediation import KIND_PARTIAL, direct_capability
from repro.org.model import Organisation, Person
from repro.sim.world import World
from repro.util.errors import FidelityError

world = World(seed=8)
env = CSCWEnvironment.builder().with_world(world).with_mediation().build()
org = Organisation("upc", "UPC")
org.add_person(Person("ana", "Ana", "upc"))
org.add_person(Person("bob", "Bob", "upc"))
env.knowledge_base.add_organisation(org)
world.add_site("bcn", ["ws-ana", "ws-bob"])
env.register_person(Communicator("ana", "ws-ana"))
env.register_person(Communicator("bob", "ws-bob"))
message_system = MessageSystem()
message_system.attach(env)
DocumentProcessor().attach(env)
QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]
env.register_application(
    AppDescriptor(name="faxline", quadrants=QUAD, native_format="fax",
                  capabilities=[direct_capability(
                      "fax", "scan",
                      lambda d: {"scan-title": d.get("fax-title", ""),
                                 "scan-body": d.get("fax-body", "")},
                      fidelity=0.95, kind=KIND_PARTIAL, exporter="faxline")]),
    lambda person, doc, info: None,
)
env.register_application(
    AppDescriptor(name="scanstore", quadrants=QUAD, native_format="scan",
                  capabilities=[direct_capability(
                      "scan", "document",
                      lambda d: {"title": d.get("scan-title", ""),
                                 "paragraphs": [d.get("scan-body", "")]},
                      fidelity=0.9, kind=KIND_PARTIAL, exporter="scanstore")]),
    lambda person, doc, info: None,
)
plan = env.mediator.plan("fax", "memo")
assert plan.hops >= 3, plan
downgraded = env.mediator.negotiate("fax", "memo", min_fidelity=0.8)
assert downgraded.fidelity < 1.0
try:
    env.mediator.negotiate("fax", "memo", min_fidelity=0.9)
    raise AssertionError("floor 0.9 must reject the 0.855 plan")
except FidelityError:
    pass
doc = {"fax-title": "offer", "fax-body": "sign here"}
delivered = env.exchange("ana", "bob", "faxline", "message-system", doc,
                         min_fidelity=0.8)
assert delivered.delivered, delivered
assert message_system.inbox("bob")[-1].document["subject"] == "offer"
refused = env.exchange("ana", "bob", "faxline", "message-system", doc,
                       min_fidelity=0.99)
assert not refused.delivered and refused.reason_code == REASON_FIDELITY, refused
assert env.mediator.stats()["whole_cache_invalidations"] == 0
print(f"mediated {' -> '.join(plan.path)} ({plan.hops} hops, "
      f"fidelity {plan.fidelity:.3f}); downgrade accepted at floor 0.8, "
      "rejected at 0.9; zero whole-cache invalidations")
EOF

echo "== bench_e13 mediation (quick) =="
python benchmarks/bench_e13_mediation.py --quick

echo "== telemetry smoke (labelled family, sampled trace, profile) =="
python - <<'EOF'
# The PR 10 tentpole surface in one breath: a labelled counter family
# with deterministic snapshots, a sampling tracer that drops a healthy
# trace but tail-retains a failed one, and a sim-time profile built
# from the retained spans.
from repro.obs import MetricsRegistry, Tracer, profile_spans

registry = MetricsRegistry()
outcomes = registry.counter("env.exchange.outcomes", labels=("domain", "outcome"))
outcomes.labels(domain="upc", outcome="delivered").inc()
outcomes.labels(domain="upc", outcome="failed").inc(2)
snapshot = registry.snapshot()["counters"]
assert snapshot == {
    "env.exchange.outcomes{domain=upc,outcome=delivered}": 1,
    "env.exchange.outcomes{domain=upc,outcome=failed}": 2,
}, snapshot
assert registry.cardinality()["env.exchange.outcomes"] == 2

ticks = iter([0.0, 1.0, 2.0, 3.0])
tracer = Tracer(clock=lambda: next(ticks)).configure_sampling(0.0, seed=11)
with tracer.span("env.exchange"):
    pass                                    # healthy: sampled out
with tracer.span("env.exchange", reason_code="unknown-receiver"):
    pass                                    # failed: tail-retained
spans = tracer.finished()
assert [s.tags.get("reason_code") for s in spans] == ["unknown-receiver"], spans
assert tracer.sampled_out == 2 and tracer.tail_retained == 1

profile = profile_spans(spans)
[row] = profile.layers()
assert row["layer"] == "env" and row["total_s"] == 1.0, row
print(f"labelled family ok ({registry.cardinality()}), tail retention ok, "
      f"profile: {row['layer']} self {row['self_s']}s")
EOF

echo "== bench_e14 telemetry (quick) =="
python benchmarks/bench_e14_telemetry.py --quick

echo "== telemetry guard (cardinality, retention, overhead cut) =="
python - <<'EOF'
# Regression fence for the PR 10 telemetry stack: the quick E18 run
# above wrote BENCH_telemetry.json; fail the build on a label-family
# cardinality breach, a lost error trace (tail retention must be
# complete and connected), growing SLO window memory, a non-reproducible
# export, or a sampling overhead cut below the floor.
import json

with open("BENCH_telemetry.json", encoding="utf-8") as handle:
    blob = json.load(handle)
limit = blob["cardinality_limit"]
for row in blob["sweep"] + [blob["overhead_point"]]:
    assert row["max_cardinality"] <= limit, row
    assert row["error_retention"] == 1.0, (
        f"lost error traces: {row['errors_retained']}/{row['errors_expected']}"
    )
    assert row["disconnected"] == 0, row
last = blob["sweep"][-1]
assert last["window_cells_mid"] == last["window_cells_end"], last
determinism = blob["determinism"]
assert determinism["snapshot_identical"] and determinism["jsonl_identical"]
reduction = blob["overhead"]["overhead_reduction"]
floor = blob["overhead"]["reduction_floor"]
assert reduction == "inf" or reduction >= floor, (
    f"sampling cut tracer overhead only {reduction}x (floor {floor}x)"
)
print(f"telemetry guard ok: cardinality <= {limit}, "
      f"{last['errors_retained']}/{last['errors_expected']} error traces "
      f"retained, {reduction}x overhead cut")
EOF

echo "== all checks passed =="
