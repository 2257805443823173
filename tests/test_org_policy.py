"""Tests for inter-organisational policies and the knowledge base."""

from __future__ import annotations

import pytest

from repro.directory.dit import DirectoryInformationTree
from repro.odp.objects import InterfaceRef
from repro.odp.trader import ImportContext, Trader
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, OrgUnit, Person
from repro.org.policy import (
    INTERACTION_MESSAGE,
    INTERACTION_REALTIME,
    INTERACTION_SERVICE_IMPORT,
    PolicyRegistry,
)
from repro.org.relations import RelationKind
from repro.util.errors import (
    ConfigurationError,
    NoOfferError,
    PolicyViolationError,
    UnknownObjectError,
)


class TestPolicyRegistry:
    @pytest.fixture
    def policies(self) -> PolicyRegistry:
        registry = PolicyRegistry()
        registry.declare("upc", "gmd", {INTERACTION_MESSAGE, INTERACTION_SERVICE_IMPORT}, cost=2.0, symmetric=True)
        registry.declare("upc", "lancaster", {"*"}, symmetric=True)
        registry.declare("gmd", "lancaster", {INTERACTION_MESSAGE})  # one-way only
        return registry

    def test_intra_org_always_compatible(self, policies):
        assert policies.compatible("upc", "upc", INTERACTION_REALTIME)

    def test_symmetric_declaration(self, policies):
        assert policies.compatible("upc", "gmd", INTERACTION_MESSAGE)
        assert policies.compatible("gmd", "upc", INTERACTION_MESSAGE)

    def test_interaction_not_allowed(self, policies):
        assert not policies.compatible("upc", "gmd", INTERACTION_REALTIME)

    def test_wildcard_allows_everything(self, policies):
        assert policies.compatible("upc", "lancaster", INTERACTION_REALTIME)

    def test_one_way_policy_is_not_enough(self, policies):
        assert not policies.compatible("gmd", "lancaster", INTERACTION_MESSAGE)

    def test_undeclared_pair_incompatible(self, policies):
        assert not policies.compatible("upc", "mars", INTERACTION_MESSAGE)

    def test_budget_gate(self, policies):
        assert policies.compatible("upc", "gmd", INTERACTION_MESSAGE, budget=5.0)
        assert not policies.compatible("upc", "gmd", INTERACTION_MESSAGE, budget=1.0)

    def test_interaction_cost(self, policies):
        assert policies.interaction_cost("upc", "gmd") == 4.0
        assert policies.interaction_cost("upc", "upc") == 0.0
        with pytest.raises(PolicyViolationError):
            policies.interaction_cost("upc", "mars")

    def test_require_compatible_raises(self, policies):
        with pytest.raises(PolicyViolationError):
            policies.require_compatible("upc", "gmd", INTERACTION_REALTIME)

    def test_partners_of(self, policies):
        assert policies.partners_of("upc", INTERACTION_MESSAGE) == ["gmd", "lancaster"]

    def test_denial_counting(self, policies):
        policies.compatible("upc", "gmd", INTERACTION_REALTIME)
        assert policies.denials == 1


class TestKnowledgeBase:
    @pytest.fixture
    def kb(self) -> OrganisationalKnowledgeBase:
        kb = OrganisationalKnowledgeBase()
        upc = Organisation("upc", "UPC")
        upc.add_person(Person("ana", "Ana Lopez", "upc"))
        upc.add_unit(OrgUnit("ac", "AC", "upc"))
        gmd = Organisation("gmd", "GMD")
        gmd.add_person(Person("wolf", "Wolf Prinz", "gmd"))
        kb.add_organisation(upc)
        kb.add_organisation(gmd)
        kb.relations.relate(RelationKind.PLAYS_ROLE, "ana", "editor")
        return kb

    def test_find_person_across_orgs(self, kb):
        assert kb.organisation_of("wolf") == "gmd"
        with pytest.raises(UnknownObjectError):
            kb.find_person("ghost")

    def test_reregistering_an_id_drops_the_replaced_members(self, kb):
        replaced = kb.organisation("upc")
        kb.add_organisation(Organisation("upc", "UPC"))
        assert dict(kb.person_index) == {"wolf": "gmd"}
        with pytest.raises(UnknownObjectError):
            kb.find_person("ana")
        # the replaced organisation no longer writes the index
        replaced.add_person(Person("eve", "Eve Ruiz", "upc"))
        assert "eve" not in kb.person_index

    def test_an_organisation_joins_one_knowledge_base(self, kb):
        with pytest.raises(ConfigurationError):
            OrganisationalKnowledgeBase().add_organisation(kb.organisation("upc"))

    def test_a_person_belongs_to_one_organisation(self, kb):
        with pytest.raises(ConfigurationError):
            kb.organisation("gmd").add_person(Person("ana", "Ana Lopez", "gmd"))
        twin = Organisation("lancs", "Lancaster")
        twin.add_person(Person("wolf", "Wolf Prinz", "lancs"))
        with pytest.raises(ConfigurationError):
            kb.add_organisation(twin)
        assert dict(kb.person_index) == {"ana": "upc", "wolf": "gmd"}
        assert [org.org_id for org in kb.organisations()] == ["upc", "gmd"]

    def test_publish_to_directory(self, kb):
        dit = DirectoryInformationTree()
        created = kb.publish_to_directory(dit, country="EU")
        # country + 2 orgs + 1 unit + 2 persons
        assert created == 6
        entry = dit.read("cn=Ana Lopez,o=UPC,c=EU")
        assert entry.get("role") == ["editor"]
        # Re-publishing creates nothing new.
        assert kb.publish_to_directory(dit, country="EU") == 0

    def test_trader_policy_hook_filters_incompatible(self, kb):
        kb.policies.declare("upc", "gmd", {INTERACTION_SERVICE_IMPORT}, symmetric=True)
        trader = Trader("t")
        trader.add_policy_hook(kb.trader_policy_hook())
        trader.export("printing", InterfaceRef("n1", "o", "i"), exporter="gmd")
        trader.export("printing", InterfaceRef("n2", "o", "i"), exporter="mars")
        offers = trader.import_(
            "printing", context=ImportContext(organisation="upc"), max_offers=10
        )
        assert [o.exporter for o in offers] == ["gmd"]

    def test_trader_policy_hook_anonymous_sees_all(self, kb):
        trader = Trader("t")
        trader.add_policy_hook(kb.trader_policy_hook())
        trader.export("printing", InterfaceRef("n2", "o", "i"), exporter="mars")
        assert len(trader.import_("printing", max_offers=10)) == 1

    def test_trader_policy_hook_blocks_everything_without_policies(self, kb):
        trader = Trader("t")
        trader.add_policy_hook(kb.trader_policy_hook())
        trader.export("printing", InterfaceRef("n1", "o", "i"), exporter="gmd")
        with pytest.raises(NoOfferError):
            trader.import_one("printing", context=ImportContext(organisation="upc"))
