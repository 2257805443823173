"""Tests for distinguished names."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directory.names import DistinguishedName, Rdn, dn
from repro.sharding.directory import partition_key
from repro.util.errors import NameError_


def reference_key(rdns: tuple[Rdn, ...]) -> str:
    """The normalisation the DIT and the shard router once recomputed per call."""
    return ",".join("=".join((r.attribute.lower(), r.value.lower())) for r in rdns)


def reference_partition_key(name: DistinguishedName) -> str:
    """The org subtree boundary: the key from the outermost ``o=`` RDN up."""
    for index in range(len(name.rdns) - 1, -1, -1):
        if name.rdns[index].attribute.lower() == "o":
            return reference_key(name.rdns[index:])
    return ""


_ATTRIBUTES = st.sampled_from(["cn", "CN", "Cn", "ou", "OU", "o", "O", "c", "C", "l"])
_VALUES = st.text(alphabet="aAbBzZñÑ09-", min_size=1, max_size=6)
_PADS = st.sampled_from(["", " ", "  "])


@st.composite
def dn_texts(draw):
    """Two renderings of one DN: different case and spacing, equal names."""
    pairs = draw(st.lists(st.tuples(_ATTRIBUTES, _VALUES), min_size=1, max_size=5))

    def render(swap: bool) -> str:
        parts = []
        for attribute, value in pairs:
            if swap:
                attribute, value = attribute.swapcase(), value.swapcase()
            parts.append(f"{draw(_PADS)}{attribute}{draw(_PADS)}={draw(_PADS)}{value}{draw(_PADS)}")
        return ",".join(parts)

    return render(False), render(True)


class TestRdn:
    def test_parse(self):
        rdn = Rdn.parse("cn=Ana Lopez")
        assert rdn.attribute == "cn"
        assert rdn.value == "Ana Lopez"

    def test_parse_missing_equals_rejected(self):
        with pytest.raises(NameError_):
            Rdn.parse("just-text")

    def test_case_insensitive_equality(self):
        assert Rdn.parse("CN=Ana") == Rdn.parse("cn=ana")

    def test_reserved_characters_rejected(self):
        with pytest.raises(NameError_):
            Rdn("cn", "a,b")

    def test_empty_parts_rejected(self):
        with pytest.raises(NameError_):
            Rdn("", "x")


class TestDistinguishedName:
    def test_parse_and_str_round_trip(self):
        name = dn("cn=Ana,ou=AC,o=UPC,c=ES")
        assert str(name) == "cn=Ana,ou=AC,o=UPC,c=ES"
        assert name.depth() == 4

    def test_empty_is_root(self):
        assert dn("").is_root
        assert dn("  ").is_root

    def test_rdn_is_leaf(self):
        assert dn("cn=Ana,o=UPC").rdn.value == "Ana"

    def test_root_has_no_rdn(self):
        with pytest.raises(NameError_):
            dn("").rdn

    def test_parent(self):
        assert str(dn("cn=Ana,o=UPC").parent()) == "o=UPC"

    def test_root_parent_rejected(self):
        with pytest.raises(NameError_):
            dn("").parent()

    def test_child(self):
        assert str(dn("o=UPC").child("cn=Ana")) == "cn=Ana,o=UPC"

    def test_descendant(self):
        assert dn("cn=Ana,ou=AC,o=UPC").is_descendant_of(dn("o=UPC"))
        assert not dn("o=UPC").is_descendant_of(dn("o=UPC"))
        assert not dn("cn=Ana,o=GMD").is_descendant_of(dn("o=UPC"))

    def test_everything_descends_from_root(self):
        assert dn("c=ES").is_descendant_of(dn(""))

    def test_case_insensitive_equality(self):
        assert dn("CN=Ana,O=UPC") == dn("cn=ana,o=upc")

    def test_ordering_is_hierarchical(self):
        names = [dn("cn=B,o=UPC"), dn("o=UPC"), dn("cn=A,o=UPC")]
        ordered = sorted(names)
        assert ordered[0] == dn("o=UPC")
        assert ordered[1] == dn("cn=A,o=UPC")


class TestOneKey:
    @settings(max_examples=200, deadline=None)
    @given(dn_texts())
    def test_key_matches_the_reference_normalisation(self, texts):
        text, variant = texts
        name, other = dn(text), dn(variant)
        assert name.key == reference_key(name.rdns)
        assert partition_key(name) == reference_partition_key(name)
        assert name == other
        assert (name.key, hash(name), partition_key(name)) == (
            other.key, hash(other), partition_key(other)
        )
        assert DistinguishedName(name.rdns).key == name.key
        if name.depth() > 1:
            assert name.parent().key == dn(text.partition(",")[2]).key

    def test_shared_suffix_is_one_object(self):
        assert dn("cn=Ana,o=UPC,c=ES").parent() is dn("cn=Joan,o=UPC,c=ES").parent()

    def test_reserved_characters_in_attribute_rejected(self):
        # an attribute holding "," or "=" would make two names share a key
        with pytest.raises(NameError_):
            Rdn("p=q,r", "s")


#: spelling -> (str(dn(spelling)), dn(spelling).key): case, spacing,
#: nesting depth and the root; a name's text and key are built from its
#: parent's, so each row also pins what the shared suffixes hold
SPELLINGS = {
    "cn=Ana,ou=AC,o=UPC,c=ES": ("cn=Ana,ou=AC,o=UPC,c=ES", "cn=ana,ou=ac,o=upc,c=es"),
    "CN=Ana, OU=AC ,  O=UPC,C=ES": ("cn=Ana,ou=AC,o=UPC,c=ES", "cn=ana,ou=ac,o=upc,c=es"),
    "  cn = Ana Lopez , o=UPC ": ("cn=Ana Lopez,o=UPC", "cn=ana lopez,o=upc"),
    "O=upc,c=es": ("o=upc,c=es", "o=upc,c=es"),
    "cn=Ña,o=ZZ": ("cn=Ña,o=ZZ", "cn=ña,o=zz"),
    "c=ES": ("c=ES", "c=es"),
    "": ("", ""),
    "   ": ("", ""),
}


class TestSpellings:
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_text_and_key_are_pinned(self, spelling):
        name = dn(spelling)
        for _ in range(2):  # the text is kept once computed
            assert (str(name), name.key) == SPELLINGS[spelling]

    def test_built_and_constructed_names_read_alike(self):
        child = dn("O=UPC, c=ES").child("CN= Ana")
        assert (str(child), child.key) == ("cn=Ana,o=UPC,c=ES", "cn=ana,o=upc,c=es")
        assert str(child.parent()) == "o=UPC,c=ES"
        built = DistinguishedName((Rdn("cn", "Ana"), Rdn("O", "UPC"), Rdn("c", "ES")))
        assert (str(built), built.key) == ("cn=Ana,O=UPC,c=ES", "cn=ana,o=upc,c=es")
        assert (str(built.parent()), built.parent().key) == ("O=UPC,c=ES", "o=upc,c=es")
        assert built == child and hash(built) == hash(child)
