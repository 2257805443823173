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
from repro.sharding.ring import ConsistentHashRing
from repro.util.errors import NoSuchEntryError

#: objectclass assigned to auto-created structural ancestors, by RDN type
_STRUCTURAL_CLASSES = {
    "c": "country",
    "o": "organization",
    "ou": "organizationalunit",
}


def _parsed(name: "DistinguishedName | str") -> DistinguishedName:
    """*name* as a parsed DN (parsing a string once per operation)."""
    return name if isinstance(name, DistinguishedName) else dn(name)


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
    rdns = _parsed(name).rdns
    for index in range(len(rdns) - 1, -1, -1):
        if rdns[index].attribute == "o":
            return ",".join("=".join(r.normalized()) for r in rdns[index:])
    return ""


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
        # labelled metric children, bound by attach_metrics (None = off)
        self._m_reads: dict[str, Any] | None = None
        self._m_writes: dict[str, Any] | None = None
        self._m_fanouts: Any = None

    def attach_metrics(self, metrics: Any) -> "ShardedDirectory":
        """Mirror the per-shard counters into labelled metric families.

        ``directory.ops{shard=...,op=reads|writes}`` children are
        resolved once per shard here — the routing hot path then pays a
        dict lookup and an ``inc``, never a label resolution.  Shard
        count is fixed at construction, so family cardinality is bounded
        by 2 x n_shards.
        """
        if metrics is None or not metrics.enabled:
            return self
        ops = metrics.counter("directory.ops", labels=("shard", "op"))
        self._m_reads = {
            agent.dsa_id: ops.labels(shard=agent.dsa_id, op="reads")
            for agent in self.shards
        }
        self._m_writes = {
            agent.dsa_id: ops.labels(shard=agent.dsa_id, op="writes")
            for agent in self.shards
        }
        self._m_fanouts = metrics.counter("directory.fanouts")
        return self

    def _count_read(self, dsa_id: str) -> None:
        self.reads_by_shard[dsa_id] += 1
        if self._m_reads is not None:
            self._m_reads[dsa_id].inc()

    def _count_write(self, dsa_id: str) -> None:
        self.writes_by_shard[dsa_id] += 1
        if self._m_writes is not None:
            self._m_writes[dsa_id].inc()

    # -- routing -----------------------------------------------------------
    def shard_id_for(self, name: "DistinguishedName | str") -> str:
        """The dsa_id owning *name*'s subtree ("" for structural names)."""
        key = partition_key(name)
        return self.ring.shard_for(key) if key else ""

    def agent_for(self, name: "DistinguishedName | str") -> DirectoryServiceAgent | None:
        """The owning DSA, or None for structural (replicated) names."""
        shard_id = self.shard_id_for(name)
        return self._by_id[shard_id] if shard_id else None

    def agent(self, dsa_id: str) -> DirectoryServiceAgent:
        """Look up one shard agent by id."""
        return self._by_id[dsa_id]

    # -- structural scaffolding --------------------------------------------
    def _ensure_ancestors(self, agent: DirectoryServiceAgent, name: DistinguishedName) -> None:
        """Create missing structural ancestors of *name* on *agent*."""
        rdns = name.rdns
        for index in range(len(rdns) - 1, 0, -1):
            ancestor = DistinguishedName(rdns[index:])
            if agent.dit.exists(ancestor):
                continue
            objectclass = _STRUCTURAL_CLASSES.get(ancestor.rdn.attribute)
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
        parsed = _parsed(name)
        agent = self.agent_for(parsed)
        if agent is None:
            entry: Entry | None = None
            for shard in self.shards:
                self._count_write(shard.dsa_id)
                self._ensure_ancestors(shard, parsed)
                if not shard.dit.exists(parsed):
                    entry = shard.dit.add(parsed, attributes)
            if entry is None:
                entry = self.shards[0].dit.read(parsed)
            return entry
        self._count_write(agent.dsa_id)
        self._ensure_ancestors(agent, parsed)
        return agent.dit.add(parsed, attributes)

    def exists(self, name: "DistinguishedName | str") -> bool:
        """Entry present? (one shard consulted; structural: any shard)."""
        parsed = _parsed(name)
        agent = self.agent_for(parsed)
        if agent is None:
            agent = self.shards[0]
        self._count_read(agent.dsa_id)
        return agent.dit.exists(parsed)

    def read(self, name: "DistinguishedName | str") -> Entry:
        """Read an entry from its owning shard only."""
        parsed = _parsed(name)
        agent = self.agent_for(parsed)
        if agent is None:
            agent = self.shards[0]
        self._count_read(agent.dsa_id)
        return agent.dit.read(parsed)

    def modify(
        self,
        name: "DistinguishedName | str",
        add: dict[str, Any] | None = None,
        replace: dict[str, Any] | None = None,
        delete: "dict[str, Any] | list[str] | None" = None,
    ) -> Entry:
        """Modify an entry on its owning shard (structural: every shard)."""
        parsed = _parsed(name)
        agents = [self.agent_for(parsed)]
        if agents[0] is None:
            agents = list(self.shards)
        entry: Entry | None = None
        for agent in agents:
            self._count_write(agent.dsa_id)
            entry = agent.dit.modify(parsed, add=add, replace=replace, delete=delete)
        assert entry is not None
        return entry

    def delete(self, name: "DistinguishedName | str") -> None:
        """Delete a leaf entry on its owning shard (structural: everywhere)."""
        parsed = _parsed(name)
        agent = self.agent_for(parsed)
        if agent is None:
            for shard in self.shards:
                self._count_write(shard.dsa_id)
                shard.dit.delete(parsed)
            return
        self._count_write(agent.dsa_id)
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
        parsed = _parsed(base)
        agent = self.agent_for(parsed)
        if agent is not None:
            self._count_read(agent.dsa_id)
            return agent.dit.search(parsed, scope=scope, where=where, limit=limit)
        self.fanouts += 1
        if self._m_fanouts is not None:
            self._m_fanouts.inc()
        merged: dict[str, Entry] = {}
        found_base = 0
        for shard in self.shards:
            self._count_read(shard.dsa_id)
            try:
                entries = shard.dit.search(parsed, scope=scope, where=where, limit=None)
            except NoSuchEntryError:
                # structural bases only exist on shards that own entries
                # beneath them; a shard without them holds no answers
                continue
            found_base += 1
            for entry in entries:
                merged.setdefault(str(entry.name).lower(), entry)
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
