"""Tests for the codec registry and document helpers."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.serialization import (
    TYPE_KEY,
    CodecRegistry,
    canonical_json,
    deep_merge,
    document_size,
)


@dataclass
class Point:
    x: int
    y: int


#: leaves: JSON scalars (non-ASCII text, any float, None) and values JSON
#: cannot encode, which the canonical encoder renders through ``str()``
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.sampled_from(["é", "日本語", "\U0001f600", "\x00\x7f"]),
    st.binary(max_size=8),
    st.complex_numbers(allow_nan=False),
    st.builds(Point, st.integers(), st.integers()),
)

_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


def _make_registry() -> CodecRegistry:
    registry = CodecRegistry()
    registry.register(
        "point",
        Point,
        lambda p: {"x": p.x, "y": p.y},
        lambda d: Point(d["x"], d["y"]),
    )
    return registry


class TestCodecRegistry:
    def test_round_trip(self):
        registry = _make_registry()
        document = registry.encode(Point(1, 2))
        assert document[TYPE_KEY] == "point"
        assert registry.decode(document) == Point(1, 2)

    def test_duplicate_registration_rejected(self):
        registry = _make_registry()
        with pytest.raises(ConfigurationError):
            registry.register("point", Point, lambda p: {}, lambda d: None)

    def test_encode_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().encode(object())

    def test_decode_untagged_document_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().decode({"x": 1})

    def test_decode_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().decode({TYPE_KEY: "mystery"})

    def test_registered_names_sorted(self):
        registry = _make_registry()
        assert registry.registered_names() == ["point"]


class TestDocumentHelpers:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_equality_is_structural(self):
        assert canonical_json({"a": [1, 2]}) == canonical_json({"a": [1, 2]})

    def test_document_size_is_bytes(self):
        assert document_size({}) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            _DOCUMENTS,
            st.lists(_DOCUMENTS, max_size=4),
            st.text(),
            st.integers(),
            st.floats(),
        )
    )
    def test_document_size_is_the_utf8_length(self, document):
        assert document_size(document) == len(canonical_json(document).encode("utf-8"))

    def test_mixed_key_types_cannot_be_sorted(self):
        """Only the canonical rendering sorts keys: the sizer sizes a
        document with mixed-type keys as it renders in insertion order."""
        document = {1: "a", "b": 2, "nested": {None: [1], "x": {2.5: "y"}}}
        with pytest.raises(TypeError):
            canonical_json(document)
        rendered = '{"1":"a","b":2,"nested":{"null":[1],"x":{"2.5":"y"}}}'
        assert document_size(document) == len(rendered)

    def test_cycles_raise_circular_reference(self):
        cyclic_dict: dict = {"a": 1}
        cyclic_dict["self"] = cyclic_dict
        cyclic_list: list = [1]
        cyclic_list.append({"back": cyclic_list})
        for document in (cyclic_dict, cyclic_list):
            for helper in (canonical_json, document_size):
                with pytest.raises(ValueError, match="Circular reference"):
                    helper(document)

    def test_nesting_past_the_recursion_limit_raises(self):
        document: list = []
        for _ in range(sys.getrecursionlimit() + 100):
            document = [document]
        for helper in (canonical_json, document_size):
            with pytest.raises(RecursionError):
                helper(document)

    def test_sizing_recovers_after_a_failed_document(self):
        """A failed sizing leaves nothing behind: the same containers,
        once repaired, size correctly (no stale cycle bookkeeping)."""

        class Unprintable:
            def __str__(self):
                raise RuntimeError("no rendering")

        cyclic: dict = {}
        cyclic["self"] = cyclic
        document = {"ok": [1, "two", 3.0], "nested": {"bad": {1: "x", "b": 2}}}
        mixed_keys = '{"ok":[1,"two",3.0],"nested":{"bad":{"1":"x","b":2}}}'
        assert document_size(document) == len(mixed_keys)  # sized, not refused
        for bad, error in (
            ({(1, 2): "x"}, TypeError),  # a key JSON cannot encode
            ([Unprintable()], RuntimeError),
            (cyclic, ValueError),
        ):
            document = {"ok": [1, "two", 3.0], "nested": {"bad": bad}}
            with pytest.raises(error):
                document_size(document)
            document["nested"]["bad"] = "repaired"
            assert document_size(document) == len(canonical_json(document))

    def test_deep_merge_overrides_scalars(self):
        assert deep_merge({"a": 1}, {"a": 2}) == {"a": 2}

    def test_deep_merge_recurses_into_dicts(self):
        base = {"ui": {"color": "red", "font": "mono"}}
        overlay = {"ui": {"color": "blue"}}
        assert deep_merge(base, overlay) == {"ui": {"color": "blue", "font": "mono"}}

    def test_deep_merge_does_not_mutate_inputs(self):
        base = {"a": {"b": 1}}
        deep_merge(base, {"a": {"b": 2}})
        assert base == {"a": {"b": 1}}
