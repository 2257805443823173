"""A knowledge base whose white pages are sharded across directory agents.

Drop-in subclass of
:class:`~repro.org.knowledge_base.OrganisationalKnowledgeBase` for
populations one directory agent cannot serve.  Person resolution is the
base class's: ``find_person`` / ``organisation_of`` read its person ->
organisation index, the one record of who belongs where, which the
registered organisations keep exact.  This subclass adds only the
placement of the white pages:

* Every organisation subtree (``o=<org_id>,c=<country>``) lives on
  exactly one :class:`~repro.directory.dsa.DirectoryServiceAgent` of a
  :class:`~repro.sharding.directory.ShardedDirectory`; ``add_person`` /
  ``move_person`` / ``remove_person`` create, migrate and delete the
  person's entry on the owning shard(s), so a directory lookup touches
  one DSA no matter how large the federation grows.
* A federation built with ``shards`` holds one such knowledge base,
  read by every domain environment, so each white-pages write happens
  once.

Directory entries are keyed by id (``cn=<person_id>,o=<org_id>,c=..``),
not display name — ids are unique across the KB, names are not.

Keyed change notifications (kind, entity id, org) are inherited from the
base class: the environment's resolution cache evicts only the verdicts
of the organisation pair a policy or organisation event names, and
nothing on a person event, which is what keeps mutation storms from
wrecking the warm path at scale.
"""

from __future__ import annotations

from repro.directory.dit import Entry
from repro.directory.names import dn
from repro.directory.schema import Schema
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, Person
from repro.sharding.directory import ShardedDirectory


class ShardedKnowledgeBase(OrganisationalKnowledgeBase):
    """Org/people knowledge partitioned across N directory shards."""

    def __init__(
        self,
        n_shards: int = 4,
        country: str = "ES",
        schema: Schema | None = None,
        replicas: int = 64,
    ) -> None:
        super().__init__()
        self.country = country
        self.directory = ShardedDirectory(
            n_shards=n_shards, name="kb-dsa", schema=schema, replicas=replicas
        )
        #: org id -> dsa id, valid while ``_shard_memo_generation`` equals
        #: the ring's generation (a ring change empties it)
        self._shard_memo: dict[str, str] = {}
        self._shard_memo_generation = self.directory.ring.generation

    # -- naming ------------------------------------------------------------
    def org_dn(self, org_id: str) -> str:
        """The DIT subtree boundary (and hash key) of one organisation."""
        return f"o={org_id},c={self.country}"

    def person_dn(self, person_id: str, org_id: str) -> str:
        """The white-pages DN of one person under their organisation."""
        return f"cn={person_id},{self.org_dn(org_id)}"

    def shard_of_org(self, org_id: str) -> str:
        """The dsa_id owning an organisation's subtree.

        Memoised per organisation: placing an org means building, parsing
        and hashing its DN, and the exchange path asks once per traced
        exchange.  Placement depends on the ring alone, so the memo is
        dropped whenever the ring's generation moves.
        """
        generation = self.directory.ring.generation
        if generation != self._shard_memo_generation:
            self._shard_memo.clear()
            self._shard_memo_generation = generation
        shard = self._shard_memo.get(org_id)
        if shard is None:
            shard = self._shard_memo[org_id] = self.directory.shard_id_for(
                self.org_dn(org_id)
            )
        return shard

    def shard_of_person(self, person_id: str) -> str:
        """The dsa_id owning a person's entry (their org's shard).

        Resolves the person's org on every call, so a move is seen at
        once; only the org -> shard step is memoised.
        """
        return self.shard_of_org(self.organisation_of(person_id))

    # -- white pages -------------------------------------------------------
    def resolve_person_entry(self, person_id: str) -> Entry:
        """The person's white-pages entry, read from the owning shard only."""
        person = self.find_person(person_id)
        return self.directory.read(self.person_dn(person_id, person.organisation))

    # -- mutators (keep the shards in step; super() writes and notifies) --
    def add_organisation(self, organisation: Organisation) -> Organisation:
        result = super().add_organisation(organisation)
        org_dn = dn(self.org_dn(organisation.org_id))
        if not self.directory.exists(org_dn):
            self.directory.add(
                org_dn,
                {"objectclass": ["organization"], "description": [organisation.name]},
            )
        for person in organisation.persons():
            self._publish_person(person)
        return result

    def add_person(self, person: Person) -> Person:
        result = super().add_person(person)
        self._publish_person(person)
        return result

    def move_person(self, person_id: str, to_org: str) -> Person:
        previous = self.find_person(person_id)
        moved = super().move_person(person_id, to_org)
        old_dn = dn(self.person_dn(person_id, previous.organisation))
        if self.directory.exists(old_dn):
            self.directory.delete(old_dn)
        self._publish_person(moved)
        return moved

    def remove_person(self, person_id: str) -> Person:
        person = super().remove_person(person_id)
        entry_dn = dn(self.person_dn(person_id, person.organisation))
        if self.directory.exists(entry_dn):
            self.directory.delete(entry_dn)
        return person

    def _publish_person(self, person: Person) -> None:
        entry_dn = dn(self.person_dn(person.person_id, person.organisation))
        if self.directory.exists(entry_dn):
            return
        attributes = {
            "objectclass": ["person"],
            "sn": [person.name.split()[-1] if person.name else person.person_id],
            "role": self.relations.roles_of(person.person_id),
        }
        if person.or_name is not None:
            attributes["mail"] = [str(person.or_name)]
        self.directory.add(entry_dn, attributes)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Index size plus the sharded directory's per-shard counters."""
        return {
            "indexed_persons": len(self.person_index),
            "organisations": len(self.organisations()),
            "directory": self.directory.stats(),
        }
