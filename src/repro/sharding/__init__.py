"""Directory/KB sharding across multiple DSAs (million-user scale-out).

One :class:`~repro.org.knowledge_base.OrganisationalKnowledgeBase` and one
DSA per environment is fine for a workgroup; a deployment serving 10^5–10^6
registered users needs the white pages partitioned.  The X.500 DIT already
draws the partition boundaries — every organisation is one subtree
(``o=<org>,c=<country>``) — so this package hashes those subtree keys onto
N :class:`~repro.directory.dsa.DirectoryServiceAgent` shards with a
consistent-hash ring:

* :class:`ConsistentHashRing` — deterministic (crc32-based, PYTHONHASHSEED
  proof) key -> shard mapping with virtual nodes;
* :class:`ShardedDirectory` — N DSAs behind one directory facade, routing
  every operation to the subtree's owning shard (structural entries above
  the org level are replicated to all shards; root-scoped searches fan
  out and merge);
* :class:`ShardedKnowledgeBase` — a drop-in
  :class:`~repro.org.knowledge_base.OrganisationalKnowledgeBase` whose
  mutations keep the sharded white pages in step (person lookups are the
  base class's O(1) index, and route verdicts its one memo, which every
  environment's :class:`~repro.environment.resolution.ResolutionCache`
  reads).

Enable per environment with ``CSCWEnvironment.builder().with_sharding(n)``,
or per federation with ``Federation(world, shards=n)``, whose domains
share one such knowledge base.
"""

from repro.sharding.directory import ShardedDirectory
from repro.sharding.kb import ShardedKnowledgeBase
from repro.sharding.ring import ConsistentHashRing

__all__ = [
    "ConsistentHashRing",
    "ShardedDirectory",
    "ShardedKnowledgeBase",
]
