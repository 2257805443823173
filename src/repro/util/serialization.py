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

#: the C encoder :meth:`json.JSONEncoder.encode` builds on every call,
#: built once with the same settings; ``None`` where ``_json`` is missing.
#: It keeps no markers dict, so it does not detect cycles (they end in a
#: :class:`RecursionError`) and no failed call can leave stale ids in it.
_canonical_chunks = (
    None
    if json.encoder.c_make_encoder is None
    else json.encoder.c_make_encoder(
        None,  # markers: no shared circular-reference table
        _CANONICAL.default,
        json.encoder.encode_basestring_ascii,
        _CANONICAL.indent,
        _CANONICAL.key_separator,
        _CANONICAL.item_separator,
        _CANONICAL.sort_keys,
        _CANONICAL.skipkeys,
        _CANONICAL.allow_nan,
    )
)


def canonical_json(document: Any) -> str:
    """Render a document as canonical JSON (sorted keys, no whitespace).

    Structurally equal documents render identically, whatever their key
    order.  The converse does not hold: a tuple renders as the list with
    the same items, and a value JSON cannot encode renders as its
    ``str()``, so distinct documents can share a rendering.  Keys of
    mixed types cannot be sorted and raise :class:`TypeError`.

    >>> print(canonical_json({"b": (1, None), "a": "é"}))
    {"a":"\\u00e9","b":[1,null]}
    """
    return _CANONICAL.encode(document)


def document_size(document: Any) -> int:
    """Size in bytes of the canonical JSON encoding of *document*.

    The environment's byte accounting, gateway relays, ``odp.binding``
    and ``communication.realtime`` use it to log and charge payload
    sizes.  The encoding is ASCII, so its length in characters is its
    length in UTF-8 bytes.  The chunks come from one prebuilt C encoder
    and are never joined; a cycle or nesting past the recursion limit
    re-runs :func:`canonical_json`'s encoder, so such documents raise
    exactly what it raises (:class:`ValueError` for a cycle).

    >>> document_size({"b": (1, None), "a": "é"})
    27
    """
    if _canonical_chunks is not None:
        try:
            return sum(map(len, _canonical_chunks(document, 0)))
        except RecursionError:
            pass
    return len(_CANONICAL.encode(document))


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
