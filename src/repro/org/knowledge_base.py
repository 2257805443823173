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
from typing import Any, Callable

from repro.directory.dit import DirectoryInformationTree
from repro.odp.trader import ImportContext, PolicyHook, ServiceOffer
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_SERVICE_IMPORT, PolicyRegistry
from repro.org.relations import RelationStore
from repro.org.rules import RuleEngine
from repro.util.errors import UnknownObjectError


class OrganisationalKnowledgeBase:
    """Aggregated organisational knowledge for one CSCW environment."""

    def __init__(self) -> None:
        self._organisations: dict[str, Organisation] = {}
        self.relations = RelationStore()
        self.rules = RuleEngine(self.relations)
        self.policies = PolicyRegistry()
        self._listeners: list[Callable[[str, str, str], None]] = []
        self.policies.add_listener(self._policies_changed)

    # -- change notification -----------------------------------------------
    def add_listener(self, listener: Callable[[str, str, str], None]) -> None:
        """Call *listener*(kind, entity_id, org) after KB mutations.

        *kind* is ``"organisation"``, ``"person"`` or ``"policy"``; the
        other two arguments scope the mutation so listeners can evict by
        key instead of flushing wholesale:

        * ``"person"`` — *entity_id* is the person id, *org* the
          organisation they now (or last) belonged to;
        * ``"organisation"`` — both are the organisation id;
        * ``"policy"`` — *entity_id*/*org* are the two organisation ids
          of the mutated policy pair.

        The environment's exchange resolution cache subscribes here so
        that memoised org/policy verdicts never outlive the facts they
        were derived from.
        """
        self._listeners.append(listener)

    def _notify(self, kind: str, entity_id: str, org: str) -> None:
        for listener in self._listeners:
            listener(kind, entity_id, org)

    def _policies_changed(self, from_org: str, to_org: str) -> None:
        self._notify("policy", from_org, to_org)

    # -- organisations -----------------------------------------------------
    def add_organisation(self, organisation: Organisation) -> Organisation:
        """Register an organisation."""
        self._organisations[organisation.org_id] = organisation
        self._notify("organisation", organisation.org_id, organisation.org_id)
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
        """Find a person across all organisations."""
        for organisation in self._organisations.values():
            try:
                return organisation.person(person_id)
            except UnknownObjectError:
                continue
        raise UnknownObjectError(f"person {person_id!r} not found in any organisation")

    def organisation_of(self, person_id: str) -> str:
        """The organisation id a person belongs to."""
        return self.find_person(person_id).organisation

    def add_person(self, person: Person) -> Person:
        """Register a person with their (already registered) organisation.

        Prefer this over ``Organisation.add_person`` for mid-run joins —
        it fires the KB change listeners so memoised resolution state is
        invalidated.
        """
        self.organisation(person.organisation).add_person(person)
        self._notify("person", person.person_id, person.organisation)
        return person

    def remove_person(self, person_id: str) -> Person:
        """Deregister a person from the knowledge base entirely.

        The inverse of :meth:`add_person`: the person leaves their
        organisation and listeners fire so memoised routes touching them
        are evicted.  Returns the removed :class:`Person` record.
        """
        person = self.find_person(person_id)
        self.organisation(person.organisation).remove_person(person_id)
        self._notify("person", person_id, person.organisation)
        return person

    def move_person(self, person_id: str, to_org: str) -> Person:
        """Move a person to another organisation mid-run.

        The person is removed from their current organisation and
        re-registered (same id/name) under *to_org*; listeners fire so
        the next exchange resolves against the new membership.
        """
        person = self.find_person(person_id)
        destination = self.organisation(to_org)
        self.organisation(person.organisation).remove_person(person_id)
        moved = replace(person, organisation=to_org)
        destination.add_person(moved)
        self._notify("person", person_id, to_org)
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
