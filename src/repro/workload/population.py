"""Seeded synthetic-population generation.

A :class:`PopulationSpec` describes a registered population (how many
people, how many organisations, which seed); a
:class:`PopulationGenerator` installs it into a ``CSCWEnvironment``:
organisations into the knowledge base, people into their organisations
(through the KB-level mutators so the KB's ``generation`` advances and —
on a sharded KB — white-pages entries land on their owning shards), and
one communicator endpoint per person.

Determinism: org membership comes from a :class:`~repro.sim.rng.SeededRng`
derived from ``spec.seed`` only, so two processes installing the same
spec produce byte-identical populations (and identical shard placement —
the ring hashes with crc32, not the randomized builtin ``hash``).

Scale pragmatics: workstations are modelled one *per organisation*, not
one per person — a 10^5-person install must not create 10^5 network
nodes.  The communicator endpoint is what exchanges route on; the shared
node only names the site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.communication.model import Communicator
from repro.org.model import Organisation, Person
from repro.sim.rng import SeededRng


@dataclass(frozen=True)
class PopulationSpec:
    """One reproducible synthetic population."""

    people: int
    organisations: int
    seed: int = 0
    person_prefix: str = "u"
    org_prefix: str = "org"
    #: declare open ("*") symmetric policies between this many of the
    #: orgs (0 = none; the bench opens only the pairs it exchanges over,
    #: because 10^3 orgs would mean 10^6 policy rows)
    open_policy_orgs: int = 0

    def __post_init__(self) -> None:
        if self.people < 1 or self.organisations < 1:
            raise ValueError("population needs >= 1 person and >= 1 organisation")
        if self.organisations > self.people:
            raise ValueError("more organisations than people")


@dataclass(frozen=True)
class PopulationReport:
    """What one install produced (for bench tables and assertions)."""

    people: int
    organisations: int
    seed: int
    #: org_id -> member count
    org_sizes: dict[str, int] = field(default_factory=dict)
    #: dsa_id -> directory entry count (empty for unsharded KBs)
    shard_entries: dict[str, int] = field(default_factory=dict)

    @property
    def shard_balance(self) -> float:
        """max/mean entries per shard (1.0 = perfectly even; 0 = unsharded)."""
        if not self.shard_entries:
            return 0.0
        counts = list(self.shard_entries.values())
        mean = sum(counts) / len(counts)
        return (max(counts) / mean) if mean else 0.0


class PopulationGenerator:
    """Installs a :class:`PopulationSpec` into an environment."""

    def __init__(self, spec: PopulationSpec) -> None:
        self.spec = spec
        self._rng = SeededRng(spec.seed).fork("population")

    def org_ids(self) -> list[str]:
        """The organisation ids this spec creates."""
        return [f"{self.spec.org_prefix}{i}" for i in range(self.spec.organisations)]

    def person_ids(self) -> list[str]:
        """The person ids this spec creates."""
        return [f"{self.spec.person_prefix}{i}" for i in range(self.spec.people)]

    def install(self, env) -> PopulationReport:
        """Create orgs, people and endpoints in *env*; return the report."""
        spec = self.spec
        kb = env.knowledge_base
        world = env.world
        rng = self._rng
        org_ids = self.org_ids()
        org_sizes = {org_id: 0 for org_id in org_ids}
        for org_id in org_ids:
            kb.add_organisation(Organisation(org_id, org_id.upper()))
            node = f"ws-{org_id}"
            if not world.network.has_node(node):
                world.network.add_node(node, site=org_id)
        last = len(org_ids) - 1
        for index in range(spec.people):
            # every org gets its first members round-robin, the rest land
            # uniformly at random — no empty orgs, seeded skew elsewhere
            if index < len(org_ids):
                org_id = org_ids[index]
            else:
                org_id = org_ids[rng.randint(0, last)]
            person_id = f"{spec.person_prefix}{index}"
            kb.add_person(Person(person_id, f"User {index}", org_id))
            env.register_person(Communicator(person_id, f"ws-{org_id}"))
            org_sizes[org_id] += 1
        if spec.open_policy_orgs > 1:
            opened = org_ids[: spec.open_policy_orgs]
            for position, org_a in enumerate(opened):
                for org_b in opened[position + 1 :]:
                    kb.policies.declare(org_a, org_b, {"*"}, symmetric=True)
        shard_entries: dict[str, int] = {}
        directory = getattr(kb, "directory", None)
        if directory is not None and hasattr(directory, "stats"):
            shard_entries = dict(directory.stats()["entries"])
        return PopulationReport(
            people=spec.people,
            organisations=spec.organisations,
            seed=spec.seed,
            org_sizes=org_sizes,
            shard_entries=shard_entries,
        )

    def sample_pairs(self, k: int, cross_org: bool = True) -> list[tuple[str, str]]:
        """*k* deterministic (sender, receiver) person pairs.

        With *cross_org* the pairs span the round-robin prefix (person i
        belongs to org i for i < organisations), guaranteeing cross-org
        routes without consulting the environment.  That prefix is a ring
        of ``min(people, organisations)`` people, so the pairs are
        distinct only up to that many and cycle after it.
        """
        spec = self.spec
        if cross_org and spec.organisations >= 2:
            bound = min(spec.people, spec.organisations)
            pairs = []
            for i in range(k):
                a = i % bound
                b = (i + 1) % bound
                pairs.append((f"{spec.person_prefix}{a}", f"{spec.person_prefix}{b}"))
            return pairs
        rng = SeededRng(spec.seed).fork("pairs")
        pairs = []
        for _ in range(k):
            a = rng.randint(0, spec.people - 1)
            b = rng.randint(0, spec.people - 1)
            if a == b:
                b = (b + 1) % spec.people
            pairs.append((f"{spec.person_prefix}{a}", f"{spec.person_prefix}{b}"))
        return pairs
