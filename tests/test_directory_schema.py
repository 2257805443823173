"""Tests for directory schema validation."""

from __future__ import annotations

import pytest

from repro.directory.schema import AttributeType, Schema, standard_schema
from repro.util.errors import ConfigurationError, SchemaViolationError


@pytest.fixture
def schema() -> Schema:
    return standard_schema()


class TestDefinitions:
    def test_duplicate_attribute_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            schema.define_attribute(AttributeType("cn"))

    def test_duplicate_class_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            schema.define_class("person")

    def test_class_with_undefined_attribute_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            schema.define_class("thing", must={"nonexistent"})

    def test_unknown_lookups_raise(self, schema):
        with pytest.raises(SchemaViolationError):
            schema.attribute("ghost")
        with pytest.raises(SchemaViolationError):
            schema.object_class("ghost")

    def test_inheritance_accumulates(self, schema):
        person = schema.object_class("person")
        assert "description" in person.all_may()  # inherited from top
        assert "cn" in person.all_must()


class TestValidation:
    def test_valid_person(self, schema):
        schema.validate_entry(
            {"objectclass": ["person"], "cn": ["Ana"], "sn": ["Lopez"], "mail": ["ana@upc.es"]}
        )

    def test_missing_objectclass_rejected(self, schema):
        with pytest.raises(SchemaViolationError, match="objectClass"):
            schema.validate_entry({"cn": ["Ana"]})

    def test_missing_mandatory_rejected(self, schema):
        with pytest.raises(SchemaViolationError, match="mandatory"):
            schema.validate_entry({"objectclass": ["person"], "cn": ["Ana"]})

    def test_unpermitted_attribute_rejected(self, schema):
        with pytest.raises(SchemaViolationError, match="not permitted"):
            schema.validate_entry(
                {"objectclass": ["country"], "c": ["ES"], "mail": ["x@y"]}
            )

    def test_single_valued_enforced(self, schema):
        with pytest.raises(SchemaViolationError, match="single-valued"):
            schema.validate_entry(
                {"objectclass": ["organization"], "o": ["UPC", "GMD"]}
            )

    def test_multiple_classes_union_permissions(self, schema):
        schema.validate_entry(
            {
                "objectclass": ["person", "cscwrole"],
                "cn": ["Ana"],
                "sn": ["Lopez"],
                "responsibility": ["review"],
            }
        )

    def test_cscw_classes_present(self, schema):
        for name in ("cscwactivity", "cscwrole", "cscwservice"):
            assert schema.has_class(name)


#: (entry, expected message or None for valid): each kind of verdict
#: validate_entry can give, on single- and multi-class entries
VERDICTS = [
    ({"objectclass": ["person"], "cn": ["Ana"], "sn": ["Lopez"]}, None),
    ({"objectClass": ["Person"], "CN": ["Ana"], "sn": ["Lopez"], "role": []}, None),
    ({"objectclass": ["person", "cscwrole"], "cn": ["Ana"], "sn": ["L"],
      "responsibility": ["review"]}, None),
    ({"cn": ["Ana"]}, "entry has no objectClass"),
    ({"objectclass": ["person"], "cn": ["Ana"]},
     "entry of class 'person' is missing mandatory attribute 'sn'"),
    ({"objectclass": ["person"], "cn": ["Ana"], "sn": []},
     "entry of class 'person' is missing mandatory attribute 'sn'"),
    ({"objectclass": ["country"], "c": ["ES"], "mail": ["x@y"]},
     "attribute 'mail' not permitted by classes ['country']"),
    ({"objectclass": ["person", "cscwrole"], "cn": ["A"], "sn": ["L"], "c": ["ES"]},
     "attribute 'c' not permitted by classes ['cscwrole', 'person']"),
    ({"objectclass": ["organization"], "o": ["UPC", "GMD"]},
     "single-valued attribute 'o' has 2 values"),
    ({"objectclass": ["ghost"], "cn": ["x"]}, "unknown object class 'ghost'"),
    ({"objectclass": ["person", "ghost"], "cn": ["x"]}, "unknown object class 'ghost'"),
]


def verdict(schema: Schema, entry: dict) -> str | None:
    try:
        schema.validate_entry(entry)
    except SchemaViolationError as exc:
        return str(exc)
    return None


class TestVerdictsAreMemoFree:
    """A schema keeps each objectClass list's resolved shape; its verdicts
    must be the ones a schema that never validated anything gives."""

    def test_a_used_schema_gives_a_fresh_schemas_verdicts(self):
        used = standard_schema()
        for _ in range(2):  # the second pass reads only memoised shapes
            for entry, expected in VERDICTS:
                assert verdict(used, entry) == verdict(standard_schema(), entry) == expected

    def test_definitions_after_first_use_are_seen(self):
        used = standard_schema()
        board = {"objectclass": ["cscwboard"], "cn": ["b"], "boardtopic": ["odp"]}
        assert verdict(used, board) == "unknown object class 'cscwboard'"
        fresh = standard_schema()
        for schema in (used, fresh):
            schema.define_attribute(AttributeType("boardtopic", single_valued=True))
            schema.define_class("cscwboard", must={"cn"}, may={"boardtopic"}, parent="top")
        for entry, expected in [
            (board, None),
            ({"objectclass": ["cscwboard"], "boardtopic": ["odp"]},
             "entry of class 'cscwboard' is missing mandatory attribute 'cn'"),
            ({"objectclass": ["cscwboard"], "cn": ["b"], "boardtopic": ["a", "b"]},
             "single-valued attribute 'boardtopic' has 2 values"),
            ({"objectclass": ["cscwboard"], "cn": ["b"], "mail": ["x@y"]},
             "attribute 'mail' not permitted by classes ['cscwboard']"),
        ]:
            assert verdict(used, entry) == verdict(fresh, entry) == expected
