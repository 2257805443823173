"""Tests for directory search filters and the filter parser."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.directory.filters import (
    And,
    Eq,
    Filter,
    Ge,
    Le,
    Not,
    Or,
    Present,
    Substr,
    parse_filter,
)
from repro.util.errors import DirectoryError

PERSON = {"cn": ["Ana Lopez"], "mail": ["ana@upc.es"], "age": [34], "objectclass": ["person"]}


class TestLeafFilters:
    def test_eq_case_insensitive(self):
        assert Eq("cn", "ana lopez").matches(PERSON)

    def test_eq_numeric(self):
        assert Eq("age", 34).matches(PERSON)
        assert not Eq("age", 35).matches(PERSON)

    def test_present(self):
        assert Present("mail").matches(PERSON)
        assert not Present("fax").matches(PERSON)

    def test_ge_le(self):
        assert Ge("age", 34).matches(PERSON)
        assert Le("age", 34).matches(PERSON)
        assert not Ge("age", 35).matches(PERSON)

    def test_substr_prefix(self):
        assert Substr("cn", ["ana", ""]).matches(PERSON)
        assert not Substr("cn", ["lopez", ""]).matches(PERSON)

    def test_substr_suffix(self):
        assert Substr("cn", ["", "lopez"]).matches(PERSON)

    def test_substr_middle(self):
        assert Substr("cn", ["", "a l", ""]).matches(PERSON)

    def test_substr_multi_part_in_order(self):
        assert Substr("cn", ["a", "l", "z"]).matches(PERSON)
        # "l*a" does match "la" (zero chars between parts is allowed)...
        assert Substr("cn", ["l", "a"]).matches({"cn": ["la"]})
        # ...but middles must appear in order after the initial segment.
        assert not Substr("cn", ["", "b", "a", ""]).matches({"cn": ["ab"]})


class TestCompositeFilters:
    def test_and(self):
        assert And([Present("cn"), Eq("age", 34)]).matches(PERSON)
        assert not And([Present("cn"), Eq("age", 1)]).matches(PERSON)

    def test_or(self):
        assert Or([Eq("age", 1), Present("mail")]).matches(PERSON)

    def test_not(self):
        assert Not(Eq("age", 1)).matches(PERSON)


class TestParser:
    def test_parse_eq(self):
        assert parse_filter("(cn=Ana Lopez)").matches(PERSON)

    def test_parse_present(self):
        assert parse_filter("(mail=*)").matches(PERSON)

    def test_parse_substring(self):
        assert parse_filter("(cn=Ana*)").matches(PERSON)
        assert parse_filter("(cn=*Lopez)").matches(PERSON)
        assert parse_filter("(cn=*na*)").matches(PERSON)

    def test_parse_numeric_comparison(self):
        assert parse_filter("(age>=30)").matches(PERSON)
        assert not parse_filter("(age<=30)").matches(PERSON)

    def test_parse_and_or_not(self):
        text = "(&(objectClass=person)(|(age>=30)(mail=*))(!(cn=Bob)))"
        assert parse_filter(text).matches(PERSON)

    def test_parse_nested(self):
        text = "(&(|(cn=Ana*)(cn=Bob*))(age>=30))"
        assert parse_filter(text).matches(PERSON)

    def test_parse_errors(self):
        for bad in ["cn=x", "(cn=x", "(&)", "(noop)", "(cn=x))"]:
            with pytest.raises(DirectoryError):
                parse_filter(bad)


class TestSerialization:
    def test_round_trip_complex(self):
        original = And([Eq("a", 1), Or([Present("b"), Not(Substr("c", ["x", ""]))]), Ge("d", 2)])
        document = original.to_document()
        restored = Filter.from_document(document)
        assert restored.to_document() == document

    def test_round_trip_le(self):
        document = Le("age", 34).to_document()
        assert document == {"kind": "le", "attribute": "age", "value": 34}
        assert Filter.from_document(document).matches(PERSON)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DirectoryError):
            Filter.from_document({"kind": "mystery"})


@given(st.text(alphabet="abc", min_size=0, max_size=8))
def test_property_substring_star_always_matches_nonempty_attribute(value):
    entry = {"cn": [value]}
    assert Present("cn").matches(entry)
    # "cn=*x*" style: a single star part list ["",""] means "anything"
    assert Substr("cn", ["", ""]).matches(entry)


@given(st.text(alphabet="ab", min_size=1, max_size=6))
def test_property_eq_matches_itself(value):
    assert Eq("cn", value).matches({"cn": [value]})
