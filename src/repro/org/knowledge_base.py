"""The organisational knowledge base.

Paper section 4: the environment must "maintain a knowledge base of
people, resources and on-going activities" and provide "mechanisms for
modelling organisations".  Section 6.1 proposes that this knowledge base
"will be associated to the trader, containing or dictating among other the
trading policy" — realised here by :meth:`OrganisationalKnowledgeBase.trader_policy_hook`
and measured by experiment E5.

The knowledge base aggregates organisations, their relations, rules and
inter-org policies, and can publish its contents into the X.500-style
directory so that non-CSCW applications find the same data.
"""

from __future__ import annotations

from dataclasses import replace
from types import MappingProxyType
from typing import Any

from repro.directory.dit import DirectoryInformationTree
from repro.odp.trader import ImportContext, PolicyHook, ServiceOffer
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_SERVICE_IMPORT, PolicyRegistry
from repro.org.relations import RelationStore
from repro.org.rules import RuleEngine
from repro.util.errors import ConfigurationError, UnknownObjectError


class OrganisationalKnowledgeBase:
    """Aggregated organisational knowledge for one CSCW environment.

    Who belongs where is recorded once, in the person -> organisation
    index: each registered :class:`~repro.org.model.Organisation` writes
    its own joins and leaves into it, so the index equals the rosters
    whether a person was written through this KB or straight into their
    organisation.  :attr:`person_index` is its read-only view, the one
    record every reader (the resolution caches, the federation) uses.
    Route verdicts are memoised here too, once per knowledge base, in
    :attr:`route_verdicts`.
    """

    def __init__(self) -> None:
        self._organisations: dict[str, Organisation] = {}
        #: person id -> organisation id, written only by the registered
        #: organisations' ``add_person``/``remove_person``
        self._person_index: dict[str, str] = {}
        #: read-only view of the person -> organisation index
        self.person_index = MappingProxyType(self._person_index)
        self.relations = RelationStore()
        self.rules = RuleEngine(self.relations)
        self.policies = PolicyRegistry(self._policy_changed)
        #: (sender org, receiver org) -> interaction -> route verdict, the
        #: one memo every environment reading this KB shares (filled by
        #: their resolution caches, emptied here per policy pair)
        self.route_verdicts: dict[tuple[str, str], dict[str, Any]] = {}
        #: advances on every write here and on every environment's format
        #: flush: a batch that hoisted its admission re-admits when it moves
        #: (a plain attribute, as the batch loop reads it once per item)
        self.generation = 0
        #: policy changes that evicted verdicts, and the verdicts evicted
        self.invalidations = 0
        self.evictions = 0

    def _policy_changed(self, from_org: str, to_org: str) -> None:
        """A verdict depends on the policies alone: a policy change forgets
        its pair's verdicts in both directions, and nothing else."""
        verdicts = self.route_verdicts
        removed = len(verdicts.pop((from_org, to_org), ()))
        removed += len(verdicts.pop((to_org, from_org), ()))
        self.generation += 1
        if removed:
            self.evictions += removed
            self.invalidations += 1

    # -- organisations -----------------------------------------------------
    def add_organisation(self, organisation: Organisation) -> Organisation:
        """Register an organisation, or replace the one with its id.

        A replaced organisation's members leave the index and it stops
        writing there.  Raises :class:`~repro.util.errors.ConfigurationError`
        when *organisation* is registered with another knowledge base, or
        holds a person another organisation here already holds.
        """
        org_id, index = organisation.org_id, self._person_index
        if organisation._person_index not in (None, index):
            raise ConfigurationError(f"organisation {org_id!r} belongs to another knowledge base")
        members = {person.person_id: org_id for person in organisation.persons()}
        taken = [person_id for person_id in members if index.get(person_id, org_id) != org_id]
        if taken:
            raise ConfigurationError(f"persons {taken} already belong to other organisations")
        replaced = self._organisations.get(org_id)
        if replaced is not None:
            for person in replaced.persons():
                del index[person.person_id]
            replaced._person_index = None
        index.update(members)
        organisation._person_index = index
        self._organisations[org_id] = organisation
        self.generation += 1
        return organisation

    def organisation(self, org_id: str) -> Organisation:
        """Look up an organisation."""
        try:
            return self._organisations[org_id]
        except KeyError:
            raise UnknownObjectError(f"unknown organisation {org_id!r}") from None

    def organisations(self) -> list[Organisation]:
        """All registered organisations."""
        return list(self._organisations.values())

    def find_person(self, person_id: str) -> Person:
        """Find a person across all organisations: one index read."""
        return self._organisations[self.organisation_of(person_id)].person(person_id)

    def organisation_of(self, person_id: str) -> str:
        """The organisation id a person belongs to."""
        org_id = self._person_index.get(person_id)
        if org_id is None:
            raise UnknownObjectError(f"person {person_id!r} not found in any organisation")
        return org_id

    def add_person(self, person: Person) -> Person:
        """Register a person with their (already registered) organisation.

        Prefer this over ``Organisation.add_person`` for mid-run joins —
        it advances :attr:`generation`, so a batch that hoisted its
        admission re-admits.
        """
        self.organisation(person.organisation).add_person(person)
        self.generation += 1
        return person

    def remove_person(self, person_id: str) -> Person:
        """Deregister a person from the knowledge base entirely.

        The inverse of :meth:`add_person`: the person leaves their
        organisation and :attr:`generation` advances.  Returns the
        removed :class:`Person` record.
        """
        person = self.find_person(person_id)
        self.organisation(person.organisation).remove_person(person_id)
        self.generation += 1
        return person

    def move_person(self, person_id: str, to_org: str) -> Person:
        """Move a person to another organisation mid-run.

        The person is removed from their current organisation and
        re-registered (same id/name) under *to_org*; the next exchange
        reads the new membership from the index, and :attr:`generation`
        advances.
        """
        person = self.find_person(person_id)
        destination = self.organisation(to_org)
        self.organisation(person.organisation).remove_person(person_id)
        moved = replace(person, organisation=to_org)
        destination.add_person(moved)
        self.generation += 1
        return moved

    # -- trader integration (paper section 6.1) ------------------------------
    def trader_policy_hook(self, exporter_org: "dict[str, str] | None" = None) -> PolicyHook:
        """Build the trading-policy predicate for an ODP trader.

        An offer is visible to an importer only when the importer's
        organisation and the exporter's organisation have compatible
        policies for service import.  *exporter_org* optionally maps
        exporter names to organisation ids; by default the offer's
        ``exporter`` field is taken to be the organisation id itself.
        """
        mapping = dict(exporter_org or {})

        def hook(offer: ServiceOffer, context: ImportContext) -> bool:
            if not context.organisation:
                return True  # anonymous imports see everything (plain ODP)
            offer_org = mapping.get(offer.exporter, offer.exporter)
            if not offer_org:
                return True
            return self.policies.compatible(
                context.organisation, offer_org, INTERACTION_SERVICE_IMPORT
            )

        return hook

    # -- directory publication ----------------------------------------------
    def publish_expertise(
        self,
        dit: DirectoryInformationTree,
        expertise: "Any",
        country: str = "ES",
    ) -> int:
        """Annotate published person entries with their capabilities.

        *expertise* is an :class:`~repro.expertise.model.ExpertiseRegistry`;
        capabilities become multi-valued ``capability`` attributes of the
        form ``skill:level`` so the white pages double as yellow pages
        ("find me an expert").  Returns the number of entries annotated.
        """
        annotated = 0
        for organisation in self._organisations.values():
            for person in organisation.persons():
                if not expertise.known(person.person_id):
                    continue
                profile = expertise.get(person.person_id)
                capabilities = [
                    f"{c.skill}:{c.level}" for c in profile.capabilities()
                ]
                if not capabilities:
                    continue
                person_dn = f"cn={person.name},o={organisation.name},c={country}"
                if not dit.exists(person_dn):
                    continue
                dit.modify(person_dn, replace={"capability": capabilities})
                annotated += 1
        return annotated

    def publish_to_directory(self, dit: DirectoryInformationTree, country: str = "ES") -> int:
        """Write organisations, units and people into a DIT.

        Returns the number of entries created.  Layout:
        ``c=<country>`` / ``o=<org>`` / ``ou=<unit>`` and people under
        their organisation.  Existing entries are left in place.
        """
        created = 0
        country_dn = f"c={country}"
        if not dit.exists(country_dn):
            dit.add(country_dn, {"objectclass": ["country"]})
            created += 1
        for organisation in self._organisations.values():
            org_dn = f"o={organisation.name},{country_dn}"
            if not dit.exists(org_dn):
                dit.add(org_dn, {"objectclass": ["organization"]})
                created += 1
            for unit in organisation.units():
                unit_dn = f"ou={unit.name},{org_dn}"
                if not dit.exists(unit_dn):
                    dit.add(unit_dn, {"objectclass": ["organizationalunit"]})
                    created += 1
            for person in organisation.persons():
                person_dn = f"cn={person.name},{org_dn}"
                if dit.exists(person_dn):
                    continue
                attributes = {
                    "objectclass": ["person"],
                    "sn": [person.name.split()[-1]],
                    "role": self.relations.roles_of(person.person_id),
                }
                if person.or_name is not None:
                    attributes["mail"] = [str(person.or_name)]
                dit.add(person_dn, attributes)
                created += 1
        return created
