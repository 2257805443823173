"""Tests for ``repro.sharding`` and the keyed resolution-cache eviction.

ISSUE 7's bug class: ``ResolutionCache.on_kb_change`` dropped every
memoised route on *any* KB mutation, so one hire evicted 2,306 cache
entries in the E11 bench.  These tests pin the fix from both ends — the
sharded KB/directory (org subtrees atomic on one DSA, structural names
replicated, person moves migrating between shards) and the keyed
invalidation contract (mutations to org A must not evict routes wholly
inside org B; ``invalidate_all`` is ONE logical invalidation; a mid-batch
mutation makes ``exchange_many`` re-resolve, never serve stale).
"""

from __future__ import annotations

import zlib

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_POLICY,
    CSCWEnvironment,
    ExchangeRequest,
)
from repro.environment.registry import (
    AppDescriptor,
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
)
from repro.federation.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs import Tracer
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sharding import ConsistentHashRing, ShardedDirectory, ShardedKnowledgeBase
from repro.sharding.directory import partition_key
from repro.sharding.ring import stable_hash
from repro.sim.world import World
from repro.util.errors import ConfigurationError, UnknownObjectError

DOC = {"fmt0-title": "minutes", "fmt0-body": "we met"}


def converter(index: int) -> FormatConverter:
    key = f"fmt{index}"
    return FormatConverter(
        key,
        lambda document: make_common(
            "note", document.get(f"{key}-title", ""), document.get(f"{key}-body", "")
        ),
        lambda common: {f"{key}-title": common["title"], f"{key}-body": common["body"]},
    )


def make_env(world, *, shards=None, orgs=("upc", "gmd", "acme", "zeta"),
             on_deliver=None, tracer=None):
    """An environment with one person per org and producer/consumer apps."""
    builder = CSCWEnvironment.builder().with_world(world).with_name("shardtest")
    if shards is not None:
        builder = builder.with_sharding(shards)
    if tracer is not None:
        builder = builder.with_tracer(tracer)
    env = builder.build()
    for org_id in orgs:
        org = Organisation(org_id, org_id.upper())
        org.add_person(Person(f"p-{org_id}", f"Person {org_id}", org_id))
        env.knowledge_base.add_organisation(org)
        node = f"ws-{org_id}"
        world.network.add_node(node, site=org_id)
        env.register_person(Communicator(f"p-{org_id}", node))
    for position, org_a in enumerate(orgs):
        for org_b in orgs[position + 1:]:
            env.knowledge_base.policies.declare(
                org_a, org_b, {INTERACTION_MESSAGE, "*"}, symmetric=True
            )
    env.applications.register(
        AppDescriptor(name="producer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=converter(0)),
        lambda person, document, info: None,
    )
    env.applications.register(
        AppDescriptor(name="consumer", quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                      converter=converter(1)),
        on_deliver or (lambda person, document, info: None),
    )
    return env


def exchange(env, sender, receiver):
    return env.exchange(sender, receiver, "producer", "consumer", DOC)


class TestConsistentHashRing:
    def test_hash_is_crc32_not_builtin_hash(self):
        # builtin hash() is salted per-process (PYTHONHASHSEED); placement
        # must be identical across processes and runs
        assert stable_hash("o=upc,c=es") == zlib.crc32(b"o=upc,c=es") & 0xFFFFFFFF

    def test_deterministic_across_instances(self):
        ring_a = ConsistentHashRing(["s0", "s1", "s2"])
        ring_b = ConsistentHashRing(["s0", "s1", "s2"])
        keys = [f"o=org{i},c=es" for i in range(200)]
        assert [ring_a.shard_for(k) for k in keys] == [ring_b.shard_for(k) for k in keys]

    def test_every_shard_gets_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        keys = [f"o=org{i},c=es" for i in range(400)]
        spread = ring.distribution(keys)
        assert set(spread) == {"s0", "s1", "s2", "s3"}
        assert min(spread.values()) > 0

    def test_remove_shard_only_remaps_its_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        keys = [f"o=org{i},c=es" for i in range(300)]
        before = {key: ring.shard_for(key) for key in keys}
        ring.remove_shard("s2")
        for key in keys:
            after = ring.shard_for(key)
            if before[key] != "s2":
                assert after == before[key], key
            else:
                assert after != "s2"


class TestPartitionKey:
    def test_outermost_org_subtree(self):
        assert partition_key("cn=Ana,ou=AC,o=UPC,c=ES") == "o=upc,c=es"

    def test_normalized_case_and_spacing(self):
        assert partition_key("CN=U1, O=UPC, C=ES") == partition_key("cn=u1,o=upc,c=es")

    def test_structural_names_have_no_key(self):
        assert partition_key("c=ES") == ""


class TestShardedDirectory:
    def test_org_subtree_lives_on_one_shard(self):
        directory = ShardedDirectory(n_shards=4)
        directory.add("o=upc,c=es", {"objectclass": ["organization"]})
        directory.add("cn=ana,o=upc,c=es", {"objectclass": ["person"], "sn": ["Lopez"]})
        owner = directory.agent_for("o=upc,c=es")
        assert owner is directory.agent_for("cn=ana,o=upc,c=es")
        holders = [s for s in directory.shards if s.dit.exists("o=upc,c=es")]
        assert holders == [owner]

    def test_structural_entries_replicated_everywhere(self):
        directory = ShardedDirectory(n_shards=4)
        directory.add("o=upc,c=es", {"objectclass": ["organization"]})
        directory.add("c=de", {"objectclass": ["country"]})
        assert all(shard.dit.exists("c=de") for shard in directory.shards)

    def test_fanout_search_merges_and_dedups(self):
        directory = ShardedDirectory(n_shards=4)
        org_dns = [f"o=org{i},c=es" for i in range(12)]
        for name in org_dns:
            directory.add(name, {"objectclass": ["organization"]})
        assert len({directory.shard_id_for(name) for name in org_dns}) > 1
        results = directory.search("c=es", scope="one")
        assert sorted(str(e.name) for e in results) == sorted(org_dns)
        assert directory.fanouts == 1

    def test_org_base_search_touches_one_shard(self):
        directory = ShardedDirectory(n_shards=4)
        directory.add("o=upc,c=es", {"objectclass": ["organization"]})
        directory.add("cn=ana,o=upc,c=es", {"objectclass": ["person"], "sn": ["Lopez"]})
        fanouts = directory.fanouts
        results = directory.search("o=upc,c=es", scope="one")
        assert [str(e.name) for e in results] == ["cn=ana,o=upc,c=es"]
        assert directory.fanouts == fanouts


class TestShardedKnowledgeBase:
    def make_kb(self, orgs=8, shards=4):
        kb = ShardedKnowledgeBase(n_shards=shards)
        for index in range(orgs):
            kb.add_organisation(Organisation(f"org{index}", f"ORG {index}"))
            kb.add_person(Person(f"u{index}", f"User {index}", f"org{index}"))
        return kb

    def cross_shard_orgs(self, kb):
        """Two org ids whose subtrees live on different shards."""
        by_shard = {}
        for org in kb.organisations():
            by_shard.setdefault(kb.shard_of_org(org.org_id), org.org_id)
        shards = list(by_shard.values())
        assert len(shards) >= 2, "test population must span shards"
        return shards[0], shards[1]

    def test_person_entry_on_owning_shard(self):
        kb = self.make_kb()
        entry = kb.resolve_person_entry("u3")
        assert entry.first("cn") == "u3"
        owner = kb.shard_of_person("u3")
        holders = [
            s.dsa_id for s in kb.directory.shards
            if s.dit.exists(kb.person_dn("u3", "org3"))
        ]
        assert holders == [owner]

    def test_move_person_across_shards_migrates_entry(self):
        kb = self.make_kb()
        from_org, to_org = self.cross_shard_orgs(kb)
        mover = f"p-{from_org}"
        kb.add_person(Person(mover, "Mover", from_org))
        old_dn = kb.person_dn(mover, from_org)
        old_shard = kb.directory.agent(kb.shard_of_org(from_org))
        assert old_shard.dit.exists(old_dn)

        kb.move_person(mover, to_org)
        # the old shard's DSA entry is gone...
        assert not old_shard.dit.exists(old_dn)
        # ...and the new owning shard resolves the person
        assert kb.shard_of_person(mover) == kb.shard_of_org(to_org)
        assert kb.resolve_person_entry(mover).first("cn") == mover
        assert kb.organisation_of(mover) == to_org

    def test_remove_person_deletes_entry_and_index(self):
        kb = self.make_kb()
        entry_dn = kb.person_dn("u5", "org5")
        shard = kb.directory.agent(kb.shard_of_org("org5"))
        assert shard.dit.exists(entry_dn)
        removed = kb.remove_person("u5")
        assert removed.person_id == "u5"
        assert not shard.dit.exists(entry_dn)
        with pytest.raises(UnknownObjectError):
            kb.find_person("u5")

    def test_index_survives_direct_org_registration(self):
        kb = self.make_kb(orgs=2)
        # bypass the KB mutator: register straight on the Organisation
        kb.organisation("org0").add_person(Person("direct", "Direct", "org0"))
        assert kb.find_person("direct").person_id == "direct"
        # second lookup is served by the index (same answer)
        assert kb.organisation_of("direct") == "org0"


class TestKeyedInvalidation:
    def test_unrelated_add_person_keeps_cached_route(self, world):
        # satellite 2: a hire must not evict a route between two other
        # parties (this is exactly what caused the 2,306-invalidation storm)
        env = make_env(world)
        assert exchange(env, "p-upc", "p-gmd").delivered
        before = env.resolution.stats()
        env.knowledge_base.add_person(Person("newbie", "New Person", "acme"))
        after = env.resolution.stats()
        assert after["evictions"] == before["evictions"]
        assert after["routes_cached"] == before["routes_cached"]
        assert after["invalidations"] == before["invalidations"]
        outcome = exchange(env, "p-upc", "p-gmd")
        assert outcome.delivered
        assert env.resolution.stats()["route_hits"] == before["route_hits"] + 1

    def test_person_event_evicts_only_their_routes(self, world):
        env = make_env(world)
        assert exchange(env, "p-upc", "p-gmd").delivered
        assert exchange(env, "p-acme", "p-zeta").delivered
        before = env.resolution.stats()
        env.knowledge_base.move_person("p-upc", "acme")
        after = env.resolution.stats()
        assert after["evictions"] == before["evictions"] + 1
        assert after["routes_cached"] == before["routes_cached"] - 1
        # the untouched route still serves from cache
        assert exchange(env, "p-acme", "p-zeta").delivered
        assert env.resolution.stats()["route_hits"] == before["route_hits"] + 1

    def test_policy_event_scoped_to_the_org_pair(self, world):
        env = make_env(world)
        assert exchange(env, "p-upc", "p-gmd").delivered
        assert exchange(env, "p-acme", "p-zeta").delivered
        before = env.resolution.stats()
        env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        after = env.resolution.stats()
        assert after["routes_cached"] == before["routes_cached"] - 1
        # revocation is visible immediately on the affected pair...
        refused = exchange(env, "p-upc", "p-gmd")
        assert not refused.delivered
        assert refused.reason_code == REASON_POLICY
        # ...while the unrelated pair still hits its cached route
        assert exchange(env, "p-acme", "p-zeta").delivered
        assert env.resolution.stats()["route_hits"] == before["route_hits"] + 1

    def test_invalidate_all_counts_one_logical_invalidation(self, world):
        # satellite 1: the whole-cache flush used to count once per layer
        env = make_env(world)
        assert exchange(env, "p-upc", "p-gmd").delivered
        before = env.resolution.stats()
        assert before["routes_cached"] == 1
        assert before["formats_cached"] == 1
        env.resolution.invalidate_all()
        after = env.resolution.stats()
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["evictions"] == before["evictions"] + 2
        assert after["routes_cached"] == 0
        assert after["formats_cached"] == 0

    def test_empty_flush_bumps_generation_not_invalidations(self, world):
        env = make_env(world)
        before = env.resolution.stats()
        env.knowledge_base.add_person(Person("ghost", "Ghost", "upc"))
        after = env.resolution.stats()
        assert after["invalidations"] == before["invalidations"]
        assert after["generation"] == before["generation"] + 1


class TestExchangeManyMidBatchMutation:
    def test_mid_batch_revocation_is_not_served_stale(self, world):
        # satellite 3: the hoisted route must be re-resolved after a
        # delivery callback mutates the KB, not replayed from the batch
        state = {"env": None, "fired": False}

        def revoke_on_first_delivery(person, document, info):
            if not state["fired"]:
                state["fired"] = True
                state["env"].knowledge_base.policies.revoke(
                    "upc", "gmd", symmetric=True
                )

        env = make_env(world, on_deliver=revoke_on_first_delivery)
        state["env"] = env
        requests = [
            ExchangeRequest("p-upc", "p-gmd", "producer", "consumer", DOC)
            for _ in range(3)
        ]
        outcomes = env.exchange_many(requests)
        assert [o.delivered for o in outcomes] == [True, False, False]
        assert outcomes[0].reason_code == REASON_DELIVERED
        for stale in outcomes[1:]:
            assert stale.reason_code == REASON_POLICY

    def test_unrelated_mid_batch_mutation_keeps_delivering(self, world):
        state = {"env": None, "fired": False}

        def hire_on_first_delivery(person, document, info):
            if not state["fired"]:
                state["fired"] = True
                state["env"].knowledge_base.add_person(
                    Person("midbatch", "Mid Batch", "acme")
                )

        env = make_env(world, on_deliver=hire_on_first_delivery)
        state["env"] = env
        before = env.resolution.stats()
        requests = [
            ExchangeRequest("p-upc", "p-gmd", "producer", "consumer", DOC)
            for _ in range(4)
        ]
        outcomes = env.exchange_many(requests)
        assert all(o.delivered for o in outcomes)
        assert env.resolution.stats()["evictions"] == before["evictions"]


class TestShardedEnvironment:
    def test_with_sharding_validates(self, world):
        with pytest.raises(ConfigurationError):
            CSCWEnvironment.builder().with_world(world).with_sharding(0)

    def test_builder_wires_a_sharded_kb(self, world):
        env = make_env(world, shards=4)
        assert isinstance(env.knowledge_base, ShardedKnowledgeBase)
        assert env.knowledge_base.stats()["directory"]["shards"] == 4

    def test_cross_shard_exchange_delivers(self, world):
        inbox = []
        env = make_env(world, shards=4,
                       on_deliver=lambda person, document, info: inbox.append(person))
        kb = env.knowledge_base
        by_shard = {}
        for org in kb.organisations():
            by_shard.setdefault(kb.shard_of_org(org.org_id), org.org_id)
        orgs = list(by_shard.values())
        assert len(orgs) >= 2, "test orgs must span shards"
        sender, receiver = f"p-{orgs[0]}", f"p-{orgs[1]}"
        outcome = exchange(env, sender, receiver)
        assert outcome.delivered
        assert outcome.reason_code == REASON_DELIVERED
        assert inbox == [receiver]
        # a hire and a move among the other orgs leave the cached route
        # alone, and the re-exchange is served from it
        bystanders = [org.org_id for org in kb.organisations() if org.org_id not in orgs[:2]]
        before = env.resolution.stats()
        kb.add_person(Person("hire", "New Hire", bystanders[0]))
        kb.move_person(f"p-{bystanders[1]}", bystanders[0])
        assert env.resolution.stats()["evictions"] == before["evictions"]
        assert env.resolution.stats()["routes_cached"] == before["routes_cached"]
        assert exchange(env, sender, receiver).delivered
        assert env.resolution.stats()["route_hits"] == before["route_hits"] + 1

    def test_move_across_shards_evicts_only_affected_keys(self, world):
        # satellite 4: the cross-shard move evicts the mover's routes and
        # nothing else (pinned through ResolutionCache.stats())
        env = make_env(world, shards=4)
        kb = env.knowledge_base
        assert exchange(env, "p-upc", "p-gmd").delivered
        assert exchange(env, "p-acme", "p-zeta").delivered
        before = env.resolution.stats()
        assert before["routes_cached"] == 2

        old_shard_id = kb.shard_of_person("p-upc")
        old_dn = kb.person_dn("p-upc", "upc")
        target = next(
            org.org_id for org in kb.organisations()
            if org.org_id != "upc" and kb.shard_of_org(org.org_id) != old_shard_id
        )
        kb.move_person("p-upc", target)

        assert not kb.directory.agent(old_shard_id).dit.exists(old_dn)
        assert kb.resolve_person_entry("p-upc").first("cn") == "p-upc"
        after = env.resolution.stats()
        assert after["evictions"] == before["evictions"] + 1
        assert after["routes_cached"] == 1
        assert exchange(env, "p-acme", "p-zeta").delivered
        assert env.resolution.stats()["route_hits"] == before["route_hits"] + 1

    def test_shard_tag_follows_moves_and_ring_changes(self, world):
        # the tag is memoised per org: a move must re-resolve the org and
        # a ring change must drop the memo
        tracer = Tracer()
        env = make_env(world, shards=4, tracer=tracer)
        kb = env.knowledge_base
        ring = kb.directory.ring

        def tag_and_placement(receiver):
            assert exchange(env, "p-upc", receiver).delivered
            placement = kb.directory.shard_id_for(kb.org_dn(kb.organisation_of(receiver)))
            return tracer.finished()[-1].tags["shard"], placement

        tag, placement = tag_and_placement("p-gmd")
        assert tag == placement

        target = next(
            org.org_id for org in kb.organisations()
            if kb.shard_of_org(org.org_id) != placement
        )
        kb.move_person("p-gmd", target)
        tag, moved = tag_and_placement("p-gmd")
        assert tag == moved != placement

        key = partition_key(kb.org_dn(target))
        newcomer = next(
            name for name in (f"kb-dsa-new{index}" for index in range(1000))
            if ConsistentHashRing(ring.shards() + [name], ring.replicas).shard_for(key)
            == name
        )
        ring.add_shard(newcomer)
        tag, placement = tag_and_placement("p-gmd")
        assert tag == placement == newcomer

        ring.remove_shard(newcomer)
        tag, placement = tag_and_placement("p-gmd")
        assert tag == placement == moved

    def test_federation_passes_shards_to_domains(self, world):
        federation = Federation(world, shards=2)
        domain = federation.add_domain("upc")
        assert isinstance(domain.env.knowledge_base, ShardedKnowledgeBase)
        assert domain.env.knowledge_base.stats()["directory"]["shards"] == 2
