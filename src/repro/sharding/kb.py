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

The route-verdict memo and its ``generation`` are the base class's: a
policy change evicts only its organisation pair's verdicts, and a person
or organisation write evicts nothing, which is what keeps mutation
storms from wrecking the warm path at scale.
"""

from __future__ import annotations

from repro.directory.dit import Entry
from repro.directory.names import DistinguishedName, dn
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
        #: org id -> its parsed subtree name, the suffix of its people's DNs
        self._org_names: dict[str, DistinguishedName] = {}

    # -- naming ------------------------------------------------------------
    def org_dn(self, org_id: str) -> str:
        """The DIT subtree boundary (and hash key) of one organisation."""
        return f"o={org_id},c={self.country}"

    def person_dn(self, person_id: str, org_id: str) -> str:
        """The white-pages DN of one person under their organisation."""
        return f"cn={person_id},{self.org_dn(org_id)}"

    def _org_name(self, org_id: str) -> DistinguishedName:
        name = self._org_names.get(org_id)
        if name is None:
            name = self._org_names[org_id] = dn(self.org_dn(org_id))
        return name

    def _person_name(self, person_id: str, org_id: str) -> DistinguishedName:
        """:meth:`person_dn`, built as one RDN under the org's parsed name."""
        return self._org_name(org_id).child(f"cn={person_id}")

    def shard_of_org(self, org_id: str) -> str:
        """The dsa_id owning an organisation's subtree (the ring's memo)."""
        return self.directory.ring.shard_for(self._org_name(org_id).key)

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
        return self.directory.read(self._person_name(person_id, person.organisation))

    # -- mutators (keep the shards in step; super() writes the index) -----
    def add_organisation(self, organisation: Organisation) -> Organisation:
        """Register (or replace) an organisation and publish its members;
        a replacement retracts the entries of the members it drops."""
        org_id = organisation.org_id
        replaced = self._organisations.get(org_id)
        org_name = self._org_name(org_id)
        org_published = self.directory.exists(org_name)
        result = super().add_organisation(organisation)
        if replaced is not None:
            for person in replaced.persons():
                entry_dn = self._person_name(person.person_id, org_id)
                if person.person_id not in self.person_index and self.directory.exists(entry_dn):
                    self.directory.delete(entry_dn)
        if not org_published:
            self.directory.add(
                org_name,
                {"objectclass": ["organization"], "description": [organisation.name]},
            )
        for person in organisation.persons():
            entry_dn = self._person_name(person.person_id, org_id)
            if not self.directory.exists(entry_dn):
                self._publish_person(person, entry_dn)
        return result

    # a write's ``exists`` reads place its entries before the index write
    def add_person(self, person: Person) -> Person:
        entry_dn = self._person_name(person.person_id, person.organisation)
        published = self.directory.exists(entry_dn)
        result = super().add_person(person)
        if not published:
            self._publish_person(person, entry_dn)
        return result

    def move_person(self, person_id: str, to_org: str) -> Person:
        from_org = self.organisation_of(person_id)
        entry_dn = self._person_name(person_id, to_org)
        old_dn = self._org_name(from_org).child(entry_dn.rdns[0])
        held, published = self.directory.exists(old_dn), self.directory.exists(entry_dn)
        moved = super().move_person(person_id, to_org)
        if held:
            self.directory.delete(old_dn)
        if not published or from_org == to_org:
            self._publish_person(moved, entry_dn)
        return moved

    def remove_person(self, person_id: str) -> Person:
        entry_dn = self._person_name(person_id, self.organisation_of(person_id))
        held = self.directory.exists(entry_dn)
        person = super().remove_person(person_id)
        if held:
            self.directory.delete(entry_dn)
        return person

    def _publish_person(self, person: Person, entry_dn: DistinguishedName) -> None:
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
