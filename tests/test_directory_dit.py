"""Tests for the Directory Information Tree."""

from __future__ import annotations

import pytest

from repro.directory.dit import SCOPE_BASE, SCOPE_ONE, SCOPE_SUBTREE, DirectoryInformationTree
from repro.directory.filters import Eq, parse_filter
from repro.util.errors import (
    AccessDeniedError,
    DirectoryError,
    EntryExistsError,
    NoSuchEntryError,
    SchemaViolationError,
)


@pytest.fixture
def dit() -> DirectoryInformationTree:
    tree = DirectoryInformationTree()
    tree.add("c=ES", {"objectclass": ["country"]})
    tree.add("o=UPC,c=ES", {"objectclass": ["organization"]})
    tree.add("ou=AC,o=UPC,c=ES", {"objectclass": ["organizationalunit"]})
    tree.add(
        "cn=Ana,ou=AC,o=UPC,c=ES",
        {"objectclass": ["person"], "sn": ["Lopez"], "mail": ["ana@upc.es"]},
    )
    tree.add(
        "cn=Joan,ou=AC,o=UPC,c=ES",
        {"objectclass": ["person"], "sn": ["Puig"]},
    )
    return tree


class TestAdd:
    def test_add_and_read(self, dit):
        entry = dit.read("cn=Ana,ou=AC,o=UPC,c=ES")
        assert entry.first("sn") == "Lopez"

    def test_naming_attribute_auto_added(self, dit):
        entry = dit.read("cn=Ana,ou=AC,o=UPC,c=ES")
        assert "Ana" in entry.get("cn")

    def test_duplicate_rejected(self, dit):
        with pytest.raises(EntryExistsError):
            dit.add("c=ES", {"objectclass": ["country"]})

    def test_orphan_rejected(self, dit):
        with pytest.raises(NoSuchEntryError):
            dit.add("cn=X,o=Nowhere,c=ES", {"objectclass": ["person"], "sn": ["X"]})

    def test_schema_violation_rejected(self, dit):
        with pytest.raises(SchemaViolationError):
            dit.add("cn=Bad,ou=AC,o=UPC,c=ES", {"objectclass": ["person"]})  # missing sn

    def test_root_add_rejected(self, dit):
        with pytest.raises(DirectoryError):
            dit.add("", {"objectclass": ["top"]})

    def test_len_counts_entries(self, dit):
        assert len(dit) == 5


class TestModify:
    def test_replace(self, dit):
        dit.modify("cn=Ana,ou=AC,o=UPC,c=ES", replace={"mail": ["ana@gmd.de"]})
        assert dit.read("cn=Ana,ou=AC,o=UPC,c=ES").get("mail") == ["ana@gmd.de"]

    def test_add_value_deduplicates(self, dit):
        dit.modify("cn=Ana,ou=AC,o=UPC,c=ES", add={"mail": ["ana@upc.es", "a2@upc.es"]})
        assert sorted(dit.read("cn=Ana,ou=AC,o=UPC,c=ES").get("mail")) == [
            "a2@upc.es",
            "ana@upc.es",
        ]

    def test_delete_attribute(self, dit):
        dit.modify("cn=Ana,ou=AC,o=UPC,c=ES", delete=["mail"])
        assert dit.read("cn=Ana,ou=AC,o=UPC,c=ES").get("mail") == []

    def test_modify_unknown_rejected(self, dit):
        with pytest.raises(NoSuchEntryError):
            dit.modify("cn=Ghost,c=ES", replace={})

    def test_modify_validates_schema(self, dit):
        with pytest.raises(SchemaViolationError):
            dit.modify("cn=Ana,ou=AC,o=UPC,c=ES", delete=["sn"])


class TestDelete:
    def test_delete_leaf(self, dit):
        dit.delete("cn=Joan,ou=AC,o=UPC,c=ES")
        assert not dit.exists("cn=Joan,ou=AC,o=UPC,c=ES")

    def test_delete_interior_rejected(self, dit):
        with pytest.raises(DirectoryError, match="children"):
            dit.delete("ou=AC,o=UPC,c=ES")

    def test_delete_unknown_rejected(self, dit):
        with pytest.raises(NoSuchEntryError):
            dit.delete("cn=Ghost,c=ES")


class TestSearch:
    def test_base_scope(self, dit):
        found = dit.search("cn=Ana,ou=AC,o=UPC,c=ES", scope=SCOPE_BASE)
        assert len(found) == 1

    def test_one_scope(self, dit):
        found = dit.search("ou=AC,o=UPC,c=ES", scope=SCOPE_ONE)
        assert {e.first("cn") for e in found} == {"Ana", "Joan"}

    def test_subtree_scope_includes_base(self, dit):
        found = dit.search("o=UPC,c=ES", scope=SCOPE_SUBTREE)
        assert len(found) == 4  # org, ou, two persons

    def test_subtree_from_root(self, dit):
        assert len(dit.search("", scope=SCOPE_SUBTREE)) == 5

    def test_filtered_search(self, dit):
        found = dit.search("", where=parse_filter("(&(objectClass=person)(mail=*))"))
        assert [e.first("cn") for e in found] == ["Ana"]

    def test_filter_object(self, dit):
        found = dit.search("", where=Eq("sn", "puig"))
        assert [e.first("cn") for e in found] == ["Joan"]

    def test_limit(self, dit):
        found = dit.search("", where=Eq("objectclass", "person"), limit=1)
        assert len(found) == 1

    def test_unknown_base_rejected(self, dit):
        with pytest.raises(NoSuchEntryError):
            dit.search("o=Ghost", scope=SCOPE_SUBTREE)

    def test_unknown_scope_rejected(self, dit):
        with pytest.raises(DirectoryError):
            dit.search("", scope="galaxy")

    def test_children_of(self, dit):
        children = dit.children_of("o=UPC,c=ES")
        assert [str(c.name) for c in children] == ["ou=AC,o=UPC,c=ES"]


class TestChangelog:
    def test_csn_increments(self, dit):
        before = dit.csn
        dit.modify("cn=Ana,ou=AC,o=UPC,c=ES", add={"title": ["prof"]})
        assert dit.csn == before + 1

    def test_changes_since(self, dit):
        mark = dit.csn
        dit.delete("cn=Joan,ou=AC,o=UPC,c=ES")
        changes = dit.changes_since(mark)
        assert len(changes) == 1
        assert changes[0].operation == "delete"

    def test_apply_change_replicates(self, dit):
        replica = DirectoryInformationTree()
        for change in dit.changes_since(0):
            replica.apply_change(change)
        assert len(replica) == len(dit)
        assert replica.read("cn=Ana,ou=AC,o=UPC,c=ES").first("sn") == "Lopez"
        assert replica.csn == dit.csn

    def test_apply_change_idempotent(self, dit):
        replica = DirectoryInformationTree()
        changes = dit.changes_since(0)
        for change in changes:
            replica.apply_change(change)
        for change in changes:
            replica.apply_change(change)
        assert len(replica) == len(dit)


class TestProtectionAfterUse:
    def test_protect_after_reads_and_writes_governs_the_next_ones(self, dit):
        ana = "cn=Ana,ou=AC,o=UPC,c=ES"
        # the open subtree is read and written first
        assert dit.read(ana, requestor="eve").first("sn") == "Lopez"
        dit.modify(ana, add={"title": ["prof"]}, requestor="eve")
        dit.add("cn=Pau,ou=AC,o=UPC,c=ES", {"objectclass": ["person"], "sn": ["Vila"]},
                requestor="eve")
        assert dit.can_read(ana, "eve") and dit.can_write(ana, "eve")

        dit.protect("ou=AC,o=UPC,c=ES", readers={"hr"}, writers={"hr"})
        with pytest.raises(AccessDeniedError):
            dit.read(ana, requestor="eve")
        with pytest.raises(AccessDeniedError):
            dit.modify(ana, add={"title": ["dean"]}, requestor="eve")
        with pytest.raises(AccessDeniedError):
            dit.add("cn=Rosa,ou=AC,o=UPC,c=ES", {"objectclass": ["person"], "sn": ["Mas"]},
                    requestor="eve")
        assert dit.read(ana, requestor="hr").first("title") == "prof"
        dit.modify(ana, add={"title": ["dean"]}, requestor="hr")

        # a more specific protection issued later overrides the first one
        dit.protect(ana, readers={"*"}, writers={"hr"})
        assert dit.read(ana, requestor="eve").first("sn") == "Lopez"
        with pytest.raises(AccessDeniedError):
            dit.read("cn=Pau,ou=AC,o=UPC,c=ES", requestor="eve")
