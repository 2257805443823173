"""Tests for the third feature pack: directory access control, expertise
publication, and meeting-minutes export."""

from __future__ import annotations

import pytest

from repro.apps.document import DocumentProcessor
from repro.apps.meeting_room import MeetingRoom
from repro.communication.model import Communicator
from repro.directory.dit import DirectoryInformationTree
from repro.directory.dsa import DirectoryServiceAgent
from repro.directory.dua import DirectoryUserAgent
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.expertise.model import ExpertiseRegistry
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, Person
from repro.util.errors import AccessDeniedError, BindingError, NoSuchEntryError


@pytest.fixture
def dit() -> DirectoryInformationTree:
    tree = DirectoryInformationTree()
    tree.add("o=UPC", {"objectclass": ["organization"]})
    tree.add("ou=Public,o=UPC", {"objectclass": ["organizationalunit"]})
    tree.add("ou=Payroll,o=UPC", {"objectclass": ["organizationalunit"]})
    tree.add("cn=Salaries,ou=Payroll,o=UPC", {"objectclass": ["device"]})
    tree.protect("ou=Payroll,o=UPC", readers={"hr", "boss"}, writers={"hr"})
    return tree


class TestDirectoryAccessControl:
    def test_unprotected_open_to_all(self, dit):
        assert dit.read("ou=Public,o=UPC").first("ou") == "Public"

    def test_protected_read_requires_listed_requestor(self, dit):
        with pytest.raises(AccessDeniedError):
            dit.read("cn=Salaries,ou=Payroll,o=UPC")
        entry = dit.read("cn=Salaries,ou=Payroll,o=UPC", requestor="hr")
        assert entry.first("cn") == "Salaries"

    def test_protection_covers_subtree(self, dit):
        assert not dit.can_read("cn=Salaries,ou=Payroll,o=UPC", "stranger")
        assert dit.can_read("cn=Salaries,ou=Payroll,o=UPC", "boss")

    def test_write_needs_writer(self, dit):
        with pytest.raises(AccessDeniedError):
            dit.modify("cn=Salaries,ou=Payroll,o=UPC", add={"description": ["x"]},
                       requestor="boss")  # boss reads but does not write
        dit.modify("cn=Salaries,ou=Payroll,o=UPC", add={"description": ["x"]},
                   requestor="hr")

    def test_add_and_delete_protected(self, dit):
        with pytest.raises(AccessDeniedError):
            dit.add("cn=Bonus,ou=Payroll,o=UPC", {"objectclass": ["device"]})
        dit.add("cn=Bonus,ou=Payroll,o=UPC", {"objectclass": ["device"]}, requestor="hr")
        with pytest.raises(AccessDeniedError):
            dit.delete("cn=Bonus,ou=Payroll,o=UPC", requestor="boss")
        dit.delete("cn=Bonus,ou=Payroll,o=UPC", requestor="hr")

    def test_search_hides_protected_entries(self, dit):
        seen = {str(e.name) for e in dit.search("")}
        assert "cn=Salaries,ou=Payroll,o=UPC" not in seen
        assert "ou=Public,o=UPC" in seen
        seen_hr = {str(e.name) for e in dit.search("", requestor="hr")}
        assert "cn=Salaries,ou=Payroll,o=UPC" in seen_hr

    def test_wildcard_reader(self, dit):
        dit.protect("ou=Public,o=UPC", readers={"*"}, writers={"admin"})
        assert dit.can_read("ou=Public,o=UPC", "anyone")
        assert not dit.can_write("ou=Public,o=UPC", "anyone")

    def test_most_specific_protection_governs(self, dit):
        dit.add("cn=Open,ou=Payroll,o=UPC", {"objectclass": ["device"]}, requestor="hr")
        dit.protect("cn=Open,ou=Payroll,o=UPC", readers={"*"}, writers={"hr"})
        assert dit.can_read("cn=Open,ou=Payroll,o=UPC", "stranger")
        assert not dit.can_read("cn=Salaries,ou=Payroll,o=UPC", "stranger")

    def test_protect_missing_entry_rejected(self, dit):
        with pytest.raises(NoSuchEntryError):
            dit.protect("o=Ghost", readers={"*"}, writers={"*"})

    def test_dua_identity_travels_over_network(self, world, dit):
        world.add_site("hq", ["dsa-node", "client"])
        capsule = Capsule(world.network, "dsa-node")
        factory = BindingFactory(world.network)
        factory.register_capsule(capsule)
        dsa = DirectoryServiceAgent("acl-dsa")
        dsa.dit.add("o=UPC", {"objectclass": ["organization"]})
        dsa.dit.add("ou=Payroll,o=UPC", {"objectclass": ["organizationalunit"]})
        dsa.dit.protect("ou=Payroll,o=UPC", readers={"hr"}, writers={"hr"})
        ref = dsa.deploy(capsule)
        anonymous = DirectoryUserAgent(factory, "client", ref)
        with pytest.raises(BindingError, match="may not read"):
            anonymous.read(world, "ou=Payroll,o=UPC")
        hr_agent = DirectoryUserAgent(factory, "client", ref, identity="hr")
        assert hr_agent.read(world, "ou=Payroll,o=UPC").first("ou") == "Payroll"


class TestExpertisePublication:
    def test_capabilities_published_as_attributes(self):
        kb = OrganisationalKnowledgeBase()
        upc = Organisation("upc", "UPC")
        upc.add_person(Person("ana", "Ana Lopez", "upc"))
        upc.add_person(Person("joan", "Joan Puig", "upc"))
        kb.add_organisation(upc)
        expertise = ExpertiseRegistry()
        expertise.profile("ana").add_capability("x500", 5)
        expertise.profile("ana").add_capability("odp", 3)
        dit = DirectoryInformationTree()
        kb.publish_to_directory(dit, country="EU")
        annotated = kb.publish_expertise(dit, expertise, country="EU")
        assert annotated == 1  # joan has no capabilities
        entry = dit.read("cn=Ana Lopez,o=UPC,c=EU")
        assert sorted(entry.get("capability")) == ["odp:3", "x500:5"]

    def test_yellow_pages_query(self):
        """Find an expert through the directory, not the registry."""
        from repro.directory.filters import parse_filter

        kb = OrganisationalKnowledgeBase()
        upc = Organisation("upc", "UPC")
        upc.add_person(Person("ana", "Ana Lopez", "upc"))
        kb.add_organisation(upc)
        expertise = ExpertiseRegistry()
        expertise.profile("ana").add_capability("x500", 5)
        dit = DirectoryInformationTree()
        kb.publish_to_directory(dit, country="EU")
        kb.publish_expertise(dit, expertise, country="EU")
        hits = dit.search("", where=parse_filter("(capability=x500*)"))
        assert [h.first("cn") for h in hits] == ["Ana Lopez"]


class TestMinutesExport:
    def test_minutes_flow_to_document_processor(self, world):
        world.colocated(2)
        env = CSCWEnvironment.builder().with_world(world).build()
        org = Organisation("upc", "UPC")
        org.add_person(Person("ana", "Ana", "upc"))
        org.add_person(Person("joan", "Joan", "upc"))
        env.knowledge_base.add_organisation(org)
        env.register_person(Communicator("ana", "ws1"))
        env.register_person(Communicator("joan", "ws2"))
        meeting = MeetingRoom(world)
        docs = DocumentProcessor()
        meeting.attach(env)
        docs.attach(env)
        meeting.enter_room("ana", "ws1")
        meeting.enter_room("joan", "ws2")
        meeting.add_agenda_point("requirements")
        meeting.begin_brainstorm("requirements")
        first = meeting.add_item("ana", "openness")
        meeting.add_item("joan", "tailorability")
        meeting.vote("ana", first.item_id)
        meeting.vote("joan", first.item_id)
        world.run()

        minutes = meeting.export_minutes("kickoff minutes")
        outcome = env.exchange(ExchangeRequest(
            "ana", "joan", meeting.name, docs.name, minutes
        ))
        assert outcome.delivered and outcome.translated
        saved = docs.titles("joan")
        assert saved == ["kickoff minutes"]
        text = "\n".join(docs.paragraphs("joan", "kickoff minutes"))
        assert "openness (ana)" in text
        assert "Decisions by vote: openness [2]" in text
        assert "Attendees: ana, joan" in text
