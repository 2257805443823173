"""Seeded inputs, worlds and the outcome oracle of the four benchmark workloads.

A workload is a *script*: chunks of public calls (``env.exchange``,
``federated_exchange_many``, presence flips, knowledge-base writes), each
with the outcome the harness expects.  The script and its expectations
are made here from ``--seed`` alone, before any world is built: the
oracle tracks the population, presence, organisation membership and
per-person queue depth it planted, so the program under test only ever
receives the generated calls.

The population and the Zipf sender ranking come from a fixed seed; the
seed picks the request stream, the absences and the churn.  This keeps
the shape of every workload (which organisation the busiest sender sits
in, who is closed off) the same across seeds, so run-to-run spread
measures the program and the machine, not a reshuffled workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

#: measured exchanges at this ``--seconds`` value are the sizes below
REFERENCE_SECONDS = 10
#: exchanges per chunk; presence flips and obs drains happen per chunk
CHUNK = 1000
WARMUP = 2000

#: local workloads: one sharded, mediated environment
LOCAL_PEOPLE = 4096
LOCAL_ORGS = 64
LOCAL_SHARDS = 8
#: the organisation that declares no policies: its cross-org traffic fails
CLOSED_ORG = f"org{LOCAL_ORGS - 1}"
#: federated workloads: four domains of equal size
DOMAINS = 4
DOMAIN_PEOPLE = 1024

POPULATION_SEED = 20_240_611
ZIPF_ALPHA = 1.2
DOC_POOL = 256
#: body length unit in characters; bodies are 1x, 4x or 16x this
BODY_UNIT = 180
ABSENT_SHARE = 0.05
FLIPS = 50
UNKNOWN_SHARE = 0.01
SAME_APP_SHARE = 0.2
FAX_SHARE = 0.05
FLOOR_SHARE = 0.005
FLOOR = 0.9
CROSS_DOMAIN_SHARE = 0.3
RUN_MEAN = 8
SHARED_DOC_RUN_SHARE = 0.5
#: kb_churn write mix (cumulative): move, hire, policy revoke + re-declare
MOVE_SHARE, HIRE_SHARE = 0.4, 0.7

STOCK_APPS = ("conferencing", "message-system", "workflow", "document-processor")
FAXLINE = "faxline"
#: declared converter fidelities (only the workflow form loses structure)
APP_FIDELITY = {"workflow": 0.9}
#: the faxline's one published capability: fax -> document (partial)
FAX_FIDELITY = 0.85

SYNC = "synchronous"
ASYNC = "asynchronous"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and its size at the reference run length."""

    name: str
    exchanges: int
    federated: bool = False
    #: one knowledge-base write every this many exchanges (0 = none)
    write_every: int = 0
    #: ``federated_exchange_many`` batch size (0 = one call per exchange)
    batch: int = 0
    #: presence flips every chunk (False = absences stay as planted)
    flips: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # The core service one call at a time: glue, translation,
        # delivery and accounting dominate.
        Workload("local_request", 60_000),
        # Writes beside reads: keyed invalidation, resolution misses and
        # sharded-KB writes dominate.
        Workload("kb_churn", 50_000, write_every=20),
        # Inter-organisational openness: federation, gateway, transport
        # and engine stepping dominate.
        Workload("federated_request", 30_000, federated=True),
        # The batch path: per-call costs are amortised, so per-request
        # gains should not show.  Batches would be swamped by the calls
        # of presence flips, so absences stay as planted.
        Workload("federated_digest", 96_000, federated=True, batch=32, flips=False),
    )
}


def measured_exchanges(workload: Workload, seconds: float, quick: bool) -> int:
    """Measured exchanges for a run of *seconds* (a count, never a time limit)."""
    count = workload.exchanges * seconds / REFERENCE_SECONDS
    if quick:
        count /= 50
    return max(CHUNK, int(count))


# -- documents ----------------------------------------------------------------

_WORDS = (
    "agenda minutes review draft budget offer schedule report memo policy "
    "meeting action deadline project partner contract summary figure task"
).split()


def _render(app: str, index: int, title: str, body: str) -> dict[str, Any]:
    """One base document in an application's native format."""
    if app == "conferencing":
        return {"topic": title, "entry": body, "conference": f"c{index % 8}",
                "author": f"author{index % 16}"}
    if app == "message-system":
        return {"subject": title, "text": body, "template": "plain",
                "fields": {"ref": f"r{index}"}}
    if app == "workflow":
        return {"form_name": title, "slots": {"summary": body, "ref": f"r{index}"}}
    if app == "document-processor":
        paragraphs = [body[i:i + BODY_UNIT] for i in range(0, len(body), BODY_UNIT)]
        return {"title": title, "paragraphs": paragraphs}
    return {"fax-title": title, "fax-body": body}


def document_pool() -> dict[str, list[dict[str, Any]]]:
    """256 base documents rendered in every format (1x, 4x or 16x bodies)."""
    rng = random.Random(POPULATION_SEED)
    pool: dict[str, list[dict[str, Any]]] = {app: [] for app in (*STOCK_APPS, FAXLINE)}
    for index in range(DOC_POOL):
        length = BODY_UNIT * rng.choice((1, 4, 16))
        words: list[str] = []
        size = 0
        while size < length:
            words.append(rng.choice(_WORDS))
            size += len(words[-1]) + 1
        body = " ".join(words)[:length]
        for app, documents in pool.items():
            documents.append(_render(app, index, f"doc-{index}", body))
    return pool


def translated_fidelity(sender_app: str, receiver_app: str) -> float:
    """The plan fidelity the environment should negotiate for an app pair."""
    target = APP_FIDELITY.get(receiver_app, 1.0)
    if sender_app == FAXLINE:
        return FAX_FIDELITY * target
    return APP_FIDELITY.get(sender_app, 1.0) * target


# -- the script -----------------------------------------------------------------

#: the outcome the oracle expects for one exchange
Expected = tuple  # (delivered, mode, reason_code, translated)


def _failed(code: str) -> Expected:
    return (False, "failed", code, False)


@dataclass
class Script:
    """A workload's calls in chunks, each call paired with its expected result.

    ``chunks[i]`` is a list of ``(key, args)`` calls; ``expected[i]`` holds,
    per call, the exchange outcome tuple, a tuple of them for a batch, the
    flushed count for an arrival, or ``None`` for calls with no result to
    check.  The first ``warmup_chunks`` chunks are the warm-up.
    """

    chunks: list[list[tuple[str, tuple]]] = field(default_factory=list)
    expected: list[list[Any]] = field(default_factory=list)
    exchanges: list[int] = field(default_factory=list)
    warmup_chunks: int = 0
    #: measured-phase counts the per-layer ratios divide by
    cross_domain: int = 0
    writes: int = 0


@dataclass
class Population:
    """The planted world: who exists, where they live, who starts absent."""

    people: list[str]
    #: person -> organisation (local) or home domain (federated)
    home: dict[str, str]
    orgs: list[str]
    absent: list[str]
    #: Zipf rank -> person
    ranked: list[str]


def make_population(workload: Workload, seed: int) -> Population:
    """The fixed population; *seed* only chooses who starts absent."""
    fixed = random.Random(POPULATION_SEED)
    if workload.federated:
        orgs = [f"d{k}" for k in range(DOMAINS)]
        people = [f"u{i}" for i in range(DOMAINS * DOMAIN_PEOPLE)]
        home = {person: orgs[i // DOMAIN_PEOPLE] for i, person in enumerate(people)}
    else:
        orgs = [f"org{k}" for k in range(LOCAL_ORGS)]
        people = [f"u{i}" for i in range(LOCAL_PEOPLE)]
        home = {
            person: orgs[i] if i < len(orgs) else fixed.choice(orgs)
            for i, person in enumerate(people)
        }
    ranked = list(people)
    fixed.shuffle(ranked)
    rng = random.Random(f"absent:{workload.name}:{seed}")
    absent = sorted(rng.sample(people, int(len(people) * ABSENT_SHARE)))
    return Population(people, home, orgs, absent, ranked)


class _Oracle:
    """The harness's own model of the planted state while it writes the script."""

    def __init__(self, workload: Workload, population: Population, seed: int) -> None:
        # the script carries the program's own request and person objects
        from repro.environment.environment import ExchangeRequest
        from repro.org.model import Person

        self.request_type, self.person_type = ExchangeRequest, Person
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.home = dict(population.home)
        self.ranked = population.ranked
        self.receivers = list(population.people)
        self.by_home: dict[str, list[str]] = {}
        for person in population.people:
            self.by_home.setdefault(population.home[person], []).append(person)
        self.orgs = population.orgs
        self.open_orgs = [org for org in population.orgs if org != CLOSED_ORG]
        self.absent = set(population.absent)
        self.present = sorted(set(population.people) - self.absent)
        self.pending: dict[str, int] = {}
        self.hires = 0
        self.docs = document_pool()

    # -- draws ----------------------------------------------------------------
    def sender(self) -> str:
        rank = int(self.rng.paretovariate(ZIPF_ALPHA)) - 1
        return self.ranked[rank % len(self.ranked)]

    def receiver(self, sender: str) -> str:
        rng = self.rng
        if rng.random() < UNKNOWN_SHARE:
            return f"ghost{rng.randrange(1000)}"
        if not self.workload.federated:
            return rng.choice(self.receivers)
        own = self.home[sender]
        domain = own
        if rng.random() < CROSS_DOMAIN_SHARE:
            domain = rng.choice([d for d in self.orgs if d != own])
        return rng.choice(self.by_home[domain])

    def apps(self, allow_fax: bool) -> tuple[str, str, float]:
        rng = self.rng
        draw = rng.random()
        if allow_fax and draw < FLOOR_SHARE:
            return FAXLINE, "workflow", FLOOR
        if allow_fax and draw < FAX_SHARE:
            return FAXLINE, rng.choice(STOCK_APPS), 0.0
        sender_app = rng.choice(STOCK_APPS)
        if rng.random() < SAME_APP_SHARE:
            return sender_app, sender_app, 0.0
        return sender_app, rng.choice([a for a in STOCK_APPS if a != sender_app]), 0.0

    def document(self, app: str) -> dict[str, Any]:
        return self.docs[app][self.rng.randrange(DOC_POOL)]

    # -- expectations -----------------------------------------------------------
    def expect(self, sender: str, receiver: str, sender_app: str,
               receiver_app: str, floor: float) -> Expected:
        """The outcome the environment's pipeline order implies.

        Local: organisation/policy, then view (fidelity floor), then the
        unknown receiver, then presence.  Federated: an unknown receiver
        has no home domain, so it fails before any translation.
        """
        receiver_home = self.home.get(receiver)
        if self.workload.federated:
            if receiver_home is None:
                return _failed("unknown-receiver")
        elif (
            receiver_home is not None
            and receiver_home != self.home[sender]
            and CLOSED_ORG in (receiver_home, self.home[sender])
        ):
            return _failed("policy")
        translated = sender_app != receiver_app
        if translated and translated_fidelity(sender_app, receiver_app) < floor:
            return _failed("fidelity")
        if receiver_home is None:
            return _failed("unknown-receiver")
        if receiver in self.absent:
            self.pending[receiver] = self.pending.get(receiver, 0) + 1
            return (True, ASYNC, "delivered", translated)
        return (True, SYNC, "delivered", translated)

    def presence_key(self, person: str, verb: str) -> str:
        if self.workload.federated:
            return f"{verb}:{self.home[person]}"
        return verb

    def flips(self, calls: list, expected: list) -> None:
        """50 absent people arrive (flushing their queues), 50 present leave."""
        rng = self.rng
        arriving = rng.sample(sorted(self.absent), FLIPS)
        leaving = rng.sample(self.present, FLIPS)
        for person in arriving:
            calls.append((self.presence_key(person, "arrive"), (person,)))
            expected.append(self.pending.pop(person, 0))
            self.absent.discard(person)
        for person in leaving:
            calls.append((self.presence_key(person, "leave"), (person,)))
            expected.append(None)
            self.absent.add(person)
        self.present = sorted(set(self.present) - set(leaving) | set(arriving))

    def write(self, calls: list, expected: list) -> None:
        """One knowledge-base write: a move, a hire or a policy re-declare."""
        rng = self.rng
        draw = rng.random()
        if draw < MOVE_SHARE:
            person = rng.choice(self.receivers)
            org = rng.choice([o for o in self.orgs if o != self.home[person]])
            calls.append(("move_person", (person, org)))
            expected.append(None)
            self.home[person] = org
        elif draw < HIRE_SHARE:
            person = f"hire{self.hires}"
            self.hires += 1
            org = rng.choice(self.orgs)
            calls.append(("add_person", (self.person_type(person, person, org),)))
            calls.append(("register_person", (person, f"ws-{org}")))
            expected.extend((None, None))
            self.home[person] = org
            self.receivers.append(person)
        else:
            org_a, org_b = rng.sample(self.open_orgs, 2)
            calls.append(("revoke", (org_a, org_b, True)))
            calls.append(("declare", (org_a, org_b, {"*"}, 0.0, True)))
            expected.extend((None, None))

    def exchange(self, run: list, allow_fax: bool) -> tuple[Any, Expected, bool]:
        """The next request (from *run* when batching), its outcome and
        whether it crosses a domain boundary."""
        if run:
            sender, receiver, sender_app, receiver_app, document = run.pop()
            floor = 0.0
        else:
            sender = self.sender()
            receiver = self.receiver(sender)
            sender_app, receiver_app, floor = self.apps(allow_fax)
            document = self.document(sender_app)
        request = self.request_type(sender, receiver, sender_app, receiver_app,
                                    document, min_fidelity=floor)
        expected = self.expect(sender, receiver, sender_app, receiver_app, floor)
        home = self.home.get(receiver)
        cross = self.workload.federated and home is not None and home != self.home[sender]
        return request, expected, cross

    def route_run(self) -> list[tuple]:
        """One same-route run (geometric length, mean 8) for batching."""
        rng = self.rng
        length = 1
        while rng.random() >= 1 / RUN_MEAN:
            length += 1
        sender = self.sender()
        receiver = self.receiver(sender)
        sender_app, receiver_app, _ = self.apps(allow_fax=False)
        shared = self.document(sender_app) if rng.random() < SHARED_DOC_RUN_SHARE else None
        return [
            (sender, receiver, sender_app, receiver_app,
             shared if shared is not None else self.document(sender_app))
            for _ in range(length)
        ]


def make_script(workload: Workload, population: Population, seed: int,
                exchanges: int) -> Script:
    """The warm-up chunks followed by measured chunks of *exchanges* in total."""
    oracle = _Oracle(workload, population, seed)
    script = Script(warmup_chunks=-(-WARMUP // CHUNK))
    total_chunks = script.warmup_chunks + -(-exchanges // CHUNK)
    allow_fax = not workload.federated
    run: list[tuple] = []
    for index in range(total_chunks):
        measured = index >= script.warmup_chunks
        calls: list[tuple[str, tuple]] = []
        expected: list[Any] = []
        if workload.flips and index:
            oracle.flips(calls, expected)
        count = 0
        while count < CHUNK:
            if workload.batch:
                batch, outcomes = [], []
                while len(batch) < workload.batch:
                    if not run:
                        run = oracle.route_run()
                    request, outcome, cross = oracle.exchange(run, allow_fax)
                    batch.append(request)
                    outcomes.append(outcome)
                    script.cross_domain += measured and cross
                calls.append(("batch", (batch,)))
                expected.append(tuple(outcomes))
                count += len(batch)
                continue
            request, outcome, cross = oracle.exchange(run, allow_fax)
            calls.append(("exchange", (request,)))
            expected.append(outcome)
            script.cross_domain += measured and cross
            count += 1
            if workload.write_every and count % workload.write_every == 0:
                oracle.write(calls, expected)
                script.writes += measured
        script.chunks.append(calls)
        script.expected.append(expected)
        script.exchanges.append(count)
    return script


# -- worlds -----------------------------------------------------------------------

@dataclass
class BenchWorld:
    """One built world: the calls a script names and what the harness reads."""

    world: Any
    envs: list
    apps: list
    calls: dict[str, Callable[..., Any]]
    federation: Any = None
    tracer: Any = None
    metrics: Any = None

    def delivered(self) -> int:
        """Documents the stock applications have received so far."""
        return sum(app.received_count for app in self.apps)


def stock_apps() -> list:
    from repro.apps.conferencing import ConferencingSystem
    from repro.apps.document import DocumentProcessor
    from repro.apps.message_system import MessageSystem
    from repro.apps.workflow import WorkflowSystem

    return [ConferencingSystem(), MessageSystem(), WorkflowSystem(), DocumentProcessor()]


def faxline_descriptor():
    """A converter-less fax app: only the mediator can translate its format."""
    from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
    from repro.mediation import KIND_PARTIAL, direct_capability

    def fax_to_document(document: dict[str, Any]) -> dict[str, Any]:
        return {"title": document.get("fax-title", ""),
                "paragraphs": [document.get("fax-body", "")]}

    return AppDescriptor(
        name=FAXLINE,
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="fax",
        capabilities=[direct_capability("fax", "document", fax_to_document,
                                        fidelity=FAX_FIDELITY, kind=KIND_PARTIAL,
                                        exporter=FAXLINE)],
    )


def _observability(observed: bool) -> tuple:
    if not observed:
        return None, None, None
    from repro.obs import EventLog, MetricsRegistry, Tracer

    return MetricsRegistry(), Tracer(), EventLog()


def build_world(workload: Workload, population: Population, seed: int,
                observed: bool = False, recorder: Any = None) -> BenchWorld:
    """Build the workload's world; *recorder* wraps layer calls before use."""
    if workload.federated:
        return _build_federation(population, seed, observed, recorder)
    return _build_local(population, seed, observed, recorder)


def _build_local(population: Population, seed: int, observed: bool,
                 recorder: Any) -> BenchWorld:
    from repro.communication.model import Communicator
    from repro.environment.environment import CSCWEnvironment
    from repro.org.model import Organisation, Person
    from repro.sim.world import World

    world = World(seed=seed)
    metrics, tracer, events = _observability(observed)
    builder = (CSCWEnvironment.builder().with_world(world)
               .with_sharding(LOCAL_SHARDS).with_mediation())
    if observed:
        builder = builder.with_metrics(metrics).with_tracer(tracer).with_event_log(events)
    env = builder.build()
    if recorder is not None:
        recorder.instrument_environment(env)
    kb = env.knowledge_base
    for org in population.orgs:
        kb.add_organisation(Organisation(org, org.upper()))
    for person in population.people:
        org = population.home[person]
        kb.add_person(Person(person, person, org))
        env.register_person(Communicator(person, f"ws-{org}"))
    opened = [org for org in population.orgs if org != CLOSED_ORG]
    for position, org_a in enumerate(opened):
        for org_b in opened[position + 1:]:
            kb.policies.declare(org_a, org_b, {"*"}, symmetric=True)
    apps = stock_apps()
    for app in apps:
        if recorder is not None:
            recorder.instrument_app(app)
        app.attach(env)
    env.register_application(faxline_descriptor(), lambda person, doc, info: None)
    for person in population.absent:
        env.person_leaves(person)

    def register_person(person: str, node: str) -> None:
        # a communicator holds mutable presence, so each world gets its own
        env.register_person(Communicator(person, node))

    calls = {
        "exchange": env.exchange,
        "arrive": env.person_arrives,
        "leave": env.person_leaves,
        "move_person": kb.move_person,
        "add_person": kb.add_person,
        "register_person": register_person,
        "revoke": kb.policies.revoke,
        "declare": kb.policies.declare,
    }
    return BenchWorld(world, [env], apps, calls, tracer=tracer, metrics=metrics)


def _build_federation(population: Population, seed: int, observed: bool,
                      recorder: Any) -> BenchWorld:
    from repro.environment.registry import AppDescriptor
    from repro.federation import Federation
    from repro.sim.world import World

    world = World(seed=seed)
    metrics, tracer, events = _observability(observed)
    assignment: dict[str, list[str]] = {org: [] for org in population.orgs}
    for person in population.people:
        assignment[population.home[person]].append(person)
    options = {"metrics": metrics, "tracer": tracer, "events": events} if observed else {}
    federation = Federation.partition(world, assignment, **options)
    if recorder is not None:
        recorder.instrument_federation(federation)
    apps = stock_apps()
    for app in apps:
        if recorder is not None:
            recorder.instrument_app(app)
        descriptor = AppDescriptor(name=app.name, quadrants=list(app.quadrants),
                                   converter=app.converter(), is_cscw=app.is_cscw)
        federation.register_application(descriptor, app.deliver)
    envs = [domain.env for domain in federation.domains()]
    for person in population.absent:
        federation.domain(population.home[person]).env.person_leaves(person)
    calls: dict[str, Callable[..., Any]] = {
        "exchange": federation.federated_exchange,
        "batch": federation.federated_exchange_many,
    }
    for domain in federation.domains():
        calls[f"arrive:{domain.name}"] = domain.env.person_arrives
        calls[f"leave:{domain.name}"] = domain.env.person_leaves
    return BenchWorld(world, envs, apps, calls, federation=federation,
                      tracer=tracer, metrics=metrics)
