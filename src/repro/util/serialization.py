"""Structured-value serialization used at interchange boundaries.

When information objects cross application boundaries through the CSCW
environment (paper section 4, "services for the access and exchange of
information between CSCW and non-CSCW applications"), they travel as plain
``dict`` documents.  This module provides a tiny codec registry so that
typed model objects can round-trip through that representation, plus a
canonical-form helper used to compare documents structurally.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Protocol, TypeVar

from repro.util.errors import ConfigurationError

T = TypeVar("T")

#: key under which the codec stores the registered type name
TYPE_KEY = "_type"


class Serializable(Protocol):
    """Objects that can serialize themselves to a plain document."""

    def to_document(self) -> dict[str, Any]:  # pragma: no cover - protocol
        """Return a plain-dict representation suitable for transport."""
        ...


class CodecRegistry:
    """Registry mapping type names to (encode, decode) functions."""

    def __init__(self) -> None:
        self._encoders: dict[type, tuple[str, Callable[[Any], dict[str, Any]]]] = {}
        self._decoders: dict[str, Callable[[dict[str, Any]], Any]] = {}

    def register(
        self,
        name: str,
        cls: type,
        encode: Callable[[Any], dict[str, Any]],
        decode: Callable[[dict[str, Any]], Any],
    ) -> None:
        """Register a codec for *cls* under *name*."""
        if name in self._decoders:
            raise ConfigurationError(f"codec {name!r} already registered")
        self._encoders[cls] = (name, encode)
        self._decoders[name] = decode

    def registered_names(self) -> list[str]:
        """Names of all registered codecs, sorted."""
        return sorted(self._decoders)

    def encode(self, obj: Any) -> dict[str, Any]:
        """Encode *obj* to a document tagged with its type name."""
        entry = self._encoders.get(type(obj))
        if entry is None:
            raise ConfigurationError(f"no codec registered for {type(obj).__name__}")
        name, encode = entry
        document = encode(obj)
        document[TYPE_KEY] = name
        return document

    def decode(self, document: dict[str, Any]) -> Any:
        """Decode a tagged document back to a typed object."""
        name = document.get(TYPE_KEY)
        if name is None:
            raise ConfigurationError("document carries no type tag")
        decode = self._decoders.get(name)
        if decode is None:
            raise ConfigurationError(f"no codec registered for type tag {name!r}")
        body = {k: v for k, v in document.items() if k != TYPE_KEY}
        return decode(body)


#: the one canonical encoder: built once, not per call as ``json.dumps``
#: with options would.  ``ensure_ascii`` (the default) escapes every
#: non-ASCII character, so its output is pure ASCII.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)

#: the sizer: the canonical settings without ``sort_keys``, as key order
#: cannot change the encoded length.  Its C encoder (the one
#: :meth:`json.JSONEncoder.encode` builds on every call) is built once;
#: ``None`` where ``_json`` is missing.  The C encoder keeps no markers
#: dict, so it does not detect cycles (they end in a
#: :class:`RecursionError`) and no failed call can leave stale ids in it.
_SIZING = json.JSONEncoder(separators=(",", ":"), default=str)
_sizing_chunks = (
    None
    if json.encoder.c_make_encoder is None
    else json.encoder.c_make_encoder(
        None,  # markers: no shared circular-reference table
        _SIZING.default,
        json.encoder.encode_basestring_ascii,
        _SIZING.indent,
        _SIZING.key_separator,
        _SIZING.item_separator,
        _SIZING.sort_keys,
        _SIZING.skipkeys,
        _SIZING.allow_nan,
    )
)


def canonical_json(document: Any) -> str:
    """Render a document as canonical JSON (sorted keys, no whitespace).

    Structurally equal documents render identically, whatever their key
    order.  The converse does not hold: a tuple renders as the list with
    the same items, and a value JSON cannot encode renders as its
    ``str()``, so distinct documents can share a rendering.  Keys of
    mixed types cannot be sorted and raise :class:`TypeError`
    (:func:`document_size` sizes such documents).

    >>> print(canonical_json({"b": (1, None), "a": "é"}))
    {"a":"\\u00e9","b":[1,null]}
    """
    return _CANONICAL.encode(document)


def document_size(document: Any) -> int:
    """Size in bytes of the canonical JSON encoding of *document*.

    The environment's byte accounting, gateway relays, ``odp.binding``
    and ``communication.realtime`` use it to log and charge payload
    sizes.  It encodes without sorting keys: key order cannot change the
    length, so every document :func:`canonical_json` renders gets that
    rendering's length.  A document with keys of mixed types, which
    :func:`canonical_json` cannot sort, is sized as it would render in
    insertion order.  The encoding is ASCII, so its length in characters
    is its length in UTF-8 bytes.  The chunks come from one prebuilt C
    encoder; a cycle or nesting past the recursion limit re-runs
    :meth:`json.JSONEncoder.encode` with the same settings, so such
    documents raise what :func:`canonical_json` raises
    (:class:`ValueError` for a cycle).

    >>> document_size({"b": (1, None), "a": "é"})
    27
    >>> document_size({1: "a", "b": 2})
    15
    """
    if _sizing_chunks is not None:
        try:
            return len("".join(_sizing_chunks(document, 0)))
        except RecursionError:
            pass
    return len(_SIZING.encode(document))


def deep_merge(base: dict[str, Any], overlay: dict[str, Any]) -> dict[str, Any]:
    """Return a new dict where *overlay* is merged recursively over *base*.

    Used by the tailoring toolkit to apply partial configuration overrides.
    """
    merged = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged
