"""N DSAs behind one directory facade, partitioned along DIT subtrees.

The unit of placement is the *organisation subtree*: every DN containing
an ``o=`` RDN belongs to the subtree rooted at its outermost ``o=`` (e.g.
``cn=Ana,ou=AC,o=UPC,c=ES`` belongs to ``o=UPC,c=ES``), and that whole
subtree lives on exactly one shard — the one the consistent-hash ring
assigns its key.  Keeping org subtrees atomic means a person lookup, an
org roster search or a unit listing always touches **one** DSA.

DNs *above* the org level (countries, the root) are structural: they are
replicated to every shard so each shard's DIT is a well-formed tree on
its own, and searches based there fan out and merge (deduplicating the
replicated structural entries).
"""

from __future__ import annotations

from typing import Any

from repro.directory.dit import SCOPE_SUBTREE, Entry
from repro.directory.dsa import DirectoryServiceAgent
from repro.directory.filters import Filter
from repro.directory.names import DistinguishedName, dn
from repro.directory.schema import Schema
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sharding.ring import ConsistentHashRing
from repro.util.errors import ConfigurationError, NoSuchEntryError

#: objectclass assigned to auto-created structural ancestors, by RDN type
_STRUCTURAL_CLASSES = {
    "c": "country",
    "o": "organization",
    "ou": "organizationalunit",
}


def partition_key(name: "DistinguishedName | str") -> str:
    """The shard-placement key of a DN: its org subtree boundary.

    Returns the normalized string of the subtree rooted at the outermost
    ``o=`` RDN, or ``""`` for structural names above the org level (those
    are replicated, not partitioned).

    >>> partition_key("cn=Ana,ou=AC,o=UPC,c=ES")
    'o=upc,c=es'
    >>> partition_key("c=ES")
    ''
    """
    key = (name if isinstance(name, DistinguishedName) else dn(name)).key
    # RDN keys hold no ",", so the last ",o=" starts the outermost o= RDN
    start = key.rfind(",o=")
    if start >= 0:
        return key[start + 1:]
    return key if key.startswith("o=") else ""


class ShardedDirectory:
    """A fleet of DSAs serving one logical white-pages directory."""

    def __init__(
        self,
        n_shards: int = 4,
        name: str = "dsa",
        schema: Schema | None = None,
        replicas: int = 64,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.shards: list[DirectoryServiceAgent] = [
            DirectoryServiceAgent(f"{name}-{index}", schema)
            for index in range(n_shards)
        ]
        self._by_id = {agent.dsa_id: agent for agent in self.shards}
        self.ring = ConsistentHashRing([agent.dsa_id for agent in self.shards], replicas)
        #: per-shard operation counters: dsa_id -> count (reads = read/
        #: exists/search routed there; writes = add/modify/delete)
        self.reads_by_shard: dict[str, int] = {agent.dsa_id: 0 for agent in self.shards}
        self.writes_by_shard: dict[str, int] = {agent.dsa_id: 0 for agent in self.shards}
        self.fanouts = 0
        self._obs: MetricsRegistry = NULL_METRICS

    def attach_metrics(self, metrics: MetricsRegistry | None) -> "ShardedDirectory":
        """Export the per-shard counters as labelled metric families.

        ``directory.ops{shard=...,op=reads|writes}`` and
        ``directory.fanouts`` read the tallies above.  Shard count is
        fixed at construction, so family cardinality is bounded by
        2 x n_shards.
        """
        obs = self._obs = (metrics or NULL_METRICS).read(
            self, {"directory.fanouts": lambda: self.fanouts}, self._obs
        )
        for op, tallies in (("reads", self.reads_by_shard), ("writes", self.writes_by_shard)):
            for dsa_id in tallies:
                obs.read(self, {"directory.ops": lambda t=tallies, d=dsa_id: t[d]},
                         labels={"shard": dsa_id, "op": op})
        return self

    # -- routing -----------------------------------------------------------
    def shard_id_for(self, name: "DistinguishedName | str") -> str:
        """The dsa_id owning *name*'s subtree ("" for structural names)."""
        key = partition_key(name)
        return self.ring.shard_for(key) if key else ""

    def agent_for(self, name: "DistinguishedName | str") -> DirectoryServiceAgent | None:
        """The owning DSA, or None for structural (replicated) names; a
        ring shard that no DSA serves raises :class:`ConfigurationError`."""
        key = partition_key(name)
        agent = self._by_id.get(shard := self.ring.shard_for(key)) if key else None
        if key and agent is None:
            raise ConfigurationError(f"ring shard {shard!r} owning {key!r} has no DSA")
        return agent

    def agent(self, dsa_id: str) -> DirectoryServiceAgent:
        """Look up one shard agent by id."""
        return self._by_id[dsa_id]

    # -- structural scaffolding --------------------------------------------
    def _ensure_ancestors(self, agent: DirectoryServiceAgent, name: DistinguishedName) -> None:
        """Create missing structural ancestors of *name* on *agent*, top down.

        An entry's own ancestors all exist, so the walk up stops at the first
        ancestor present.
        """
        missing = []
        ancestor = name
        while len(ancestor.rdns) > 1:
            ancestor = ancestor.parent()
            if agent.dit.exists(ancestor):
                break
            missing.append(ancestor)
        for ancestor in reversed(missing):
            objectclass = _STRUCTURAL_CLASSES.get(ancestor.rdn.normalized[0])
            if objectclass is None:
                raise ValueError(
                    f"cannot auto-create ancestor {ancestor} of {name}: "
                    f"unknown structural type {ancestor.rdn.attribute!r}"
                )
            agent.dit.add(ancestor, {"objectclass": [objectclass]})

    # -- operations --------------------------------------------------------
    def add(self, name: "DistinguishedName | str", attributes: dict[str, Any]) -> Entry:
        """Add an entry on its owning shard (structural: on every shard).

        Missing structural ancestors (country, org, unit) are created on
        the owning shard so each shard's DIT stays a well-formed tree.
        """
        parsed = name if isinstance(name, DistinguishedName) else dn(name)
        agent = self.agent_for(parsed)
        if agent is None:
            entry: Entry | None = None
            for shard in self.shards:
                self.writes_by_shard[shard.dsa_id] += 1
                self._ensure_ancestors(shard, parsed)
                if not shard.dit.exists(parsed):
                    entry = shard.dit.add(parsed, attributes)
            if entry is None:
                entry = self.shards[0].dit.read(parsed)
            return entry
        self.writes_by_shard[agent.dsa_id] += 1
        self._ensure_ancestors(agent, parsed)
        return agent.dit.add(parsed, attributes)

    def exists(self, name: "DistinguishedName | str") -> bool:
        """Entry present? (one shard consulted; structural: any shard)."""
        parsed = name if isinstance(name, DistinguishedName) else dn(name)
        agent = self.agent_for(parsed) or self.shards[0]
        self.reads_by_shard[agent.dsa_id] += 1
        return agent.dit.exists(parsed)

    def read(self, name: "DistinguishedName | str") -> Entry:
        """Read an entry from its owning shard only."""
        parsed = dn(name)
        agent = self.agent_for(parsed) or self.shards[0]
        self.reads_by_shard[agent.dsa_id] += 1
        return agent.dit.read(parsed)

    def modify(
        self,
        name: "DistinguishedName | str",
        add: dict[str, Any] | None = None,
        replace: dict[str, Any] | None = None,
        delete: "dict[str, Any] | list[str] | None" = None,
    ) -> Entry:
        """Modify an entry on its owning shard (structural: every shard)."""
        parsed = dn(name)
        agents = [self.agent_for(parsed)]
        if agents[0] is None:
            agents = list(self.shards)
        entry: Entry | None = None
        for agent in agents:
            self.writes_by_shard[agent.dsa_id] += 1
            entry = agent.dit.modify(parsed, add=add, replace=replace, delete=delete)
        assert entry is not None
        return entry

    def delete(self, name: "DistinguishedName | str") -> None:
        """Delete a leaf entry on its owning shard (structural: everywhere)."""
        parsed = name if isinstance(name, DistinguishedName) else dn(name)
        agent = self.agent_for(parsed)
        if agent is None:
            for shard in self.shards:
                self.writes_by_shard[shard.dsa_id] += 1
                shard.dit.delete(parsed)
            return
        self.writes_by_shard[agent.dsa_id] += 1
        agent.dit.delete(parsed)

    def search(
        self,
        base: "DistinguishedName | str" = "",
        scope: str = SCOPE_SUBTREE,
        where: Filter | None = None,
        limit: int | None = None,
    ) -> list[Entry]:
        """Scoped search: one shard for org-subtree bases, else fan-out.

        Fan-out results are merged in DN order with replicated structural
        entries deduplicated, so the answer is what one giant DIT would
        have returned.
        """
        parsed = dn(base)
        agent = self.agent_for(parsed)
        if agent is not None:
            self.reads_by_shard[agent.dsa_id] += 1
            return agent.dit.search(parsed, scope=scope, where=where, limit=limit)
        self.fanouts += 1
        merged: dict[str, Entry] = {}
        found_base = 0
        for shard in self.shards:
            self.reads_by_shard[shard.dsa_id] += 1
            try:
                entries = shard.dit.search(parsed, scope=scope, where=where, limit=None)
            except NoSuchEntryError:
                # structural bases only exist on shards that own entries
                # beneath them; a shard without them holds no answers
                continue
            found_base += 1
            for entry in entries:
                merged.setdefault(entry.name.key, entry)
        if not found_base:
            raise NoSuchEntryError(f"search base {base} does not exist on any shard")
        results = sorted(merged.values(), key=lambda entry: entry.name)
        return results[:limit] if limit is not None else results

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Entry counts and routed-operation counters, per shard."""
        return {
            "shards": len(self.shards),
            "entries": {agent.dsa_id: len(agent.dit) for agent in self.shards},
            "reads": dict(self.reads_by_shard),
            "writes": dict(self.writes_by_shard),
            "fanouts": self.fanouts,
        }
