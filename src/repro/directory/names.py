"""Distinguished names for the X.500-style directory.

A distinguished name (DN) is a sequence of relative distinguished names
(RDNs), written little-endian like X.500/LDAP strings:
``cn=Ana,ou=AC,o=UPC,c=ES`` — the leftmost RDN is the leaf, the rightmost
hangs directly under the root.  Attribute types are case-insensitive;
values keep their case but compare case-insensitively, matching X.500's
caseIgnoreMatch for naming attributes.

A name is case-folded once, when it is built, into ``key``
(``cn=ana,o=upc``): equality, hashing, the DIT, shard placement and
protections all read it.  :func:`dn` parses only the leaf RDN and hangs
it under a shared, already-parsed suffix such as ``o=UPC,c=ES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, total_ordering

from repro.util.errors import NameError_

#: how many distinct parsed suffixes (``o=UPC,c=ES``, ...) :func:`dn`
#: keeps for sharing; past it the least recently used one is parsed again
SHARED_SUFFIXES = 4096


@dataclass(frozen=True, slots=True)
@total_ordering
class Rdn:
    """One relative distinguished name: an attribute=value pair.

    Equality and hashing use the case-folded ``key`` (``cn=ana``),
    ordering the case-folded ``normalized`` pair; both are set here.
    """

    attribute: str = field(compare=False)
    value: str = field(compare=False)
    normalized: tuple[str, str] = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.attribute or not self.value:
            raise NameError_("RDN attribute and value must be non-empty")
        for part in (self.attribute, self.value):
            if "," in part or "=" in part:
                raise NameError_(f"RDN {part!r} contains reserved characters")
        normalized = (self.attribute.lower(), self.value.lower())
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "key", "=".join(normalized))

    @staticmethod
    def parse(text: str) -> "Rdn":
        """Parse ``attr=value``."""
        attribute, sep, value = text.partition("=")
        if not sep:
            raise NameError_(f"invalid RDN {text!r} (missing '=')")
        return Rdn(attribute.strip().lower(), value.strip())

    def __str__(self) -> str:
        return f"{self.attribute}={self.value}"

    def __lt__(self, other: "Rdn") -> bool:
        return self.normalized < other.normalized


@dataclass(frozen=True, slots=True)
class DistinguishedName:
    """An immutable sequence of RDNs, leaf first.

    The empty DN (``DistinguishedName(())``) denotes the directory root.
    Equality and hashing use ``key``; the parent is built at most once.
    A :meth:`child` extends its parent's key; text is kept once computed.
    """

    rdns: tuple[Rdn, ...] = field(default=(), compare=False)
    _parent: "DistinguishedName | None" = field(default=None, repr=False, compare=False)
    key: str = field(init=False, repr=False)
    _text: "str | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parent = self._parent
        if parent is not None and parent.rdns:
            key = f"{self.rdns[0].key},{parent.key}"
        else:
            key = ",".join([r.key for r in self.rdns])
        object.__setattr__(self, "key", key)

    @staticmethod
    def parse(text: str) -> "DistinguishedName":
        """Parse a string like ``cn=Ana,ou=AC,o=UPC,c=ES``.

        An empty or whitespace-only string denotes the root.
        """
        stripped = text.strip()
        return _parse_stripped(stripped) if stripped else _ROOT

    @property
    def is_root(self) -> bool:
        """True for the empty (root) name."""
        return not self.rdns

    @property
    def rdn(self) -> Rdn:
        """The leaf RDN."""
        if self.is_root:
            raise NameError_("the root has no RDN")
        return self.rdns[0]

    def parent(self) -> "DistinguishedName":
        """The name one level up (root's parent raises)."""
        if not self.rdns:
            raise NameError_("the root has no parent")
        if self._parent is None:
            object.__setattr__(self, "_parent", DistinguishedName(self.rdns[1:]))
        return self._parent

    def child(self, rdn: Rdn | str) -> "DistinguishedName":
        """The name of a child entry under this one."""
        leaf = rdn if isinstance(rdn, Rdn) else Rdn.parse(rdn)
        return DistinguishedName((leaf,) + self.rdns, self)

    def is_descendant_of(self, ancestor: "DistinguishedName") -> bool:
        """True when *ancestor* is a proper prefix (suffix-wise) of self."""
        if len(self.rdns) <= len(ancestor.rdns):
            return False
        return self.rdns[len(self.rdns) - len(ancestor.rdns):] == ancestor.rdns

    def depth(self) -> int:
        """Number of RDNs (0 for the root)."""
        return len(self.rdns)

    def __str__(self) -> str:
        if self._text is None:
            text = ",".join(map(str, self.rdns[:1]))
            if len(self.rdns) > 1:
                text = f"{text},{self.parent()}"
            object.__setattr__(self, "_text", text)
        return self._text

    def __lt__(self, other: "DistinguishedName") -> bool:
        return tuple(r.normalized for r in reversed(self.rdns)) < tuple(
            r.normalized for r in reversed(other.rdns)
        )


_ROOT = DistinguishedName(())


def _parse_stripped(text: str) -> DistinguishedName:
    """Parse a non-empty, stripped DN string: its leaf over a shared suffix."""
    leaf_text, sep, rest = text.partition(",")
    leaf = Rdn.parse(leaf_text)
    return (_shared_suffix(rest.strip()) if sep else _ROOT).child(leaf)


_shared_suffix = lru_cache(maxsize=SHARED_SUFFIXES)(_parse_stripped)


def dn(text: "str | DistinguishedName") -> DistinguishedName:
    """Shorthand for :meth:`DistinguishedName.parse`; a parsed name passes through.

    >>> dn("cn=Ana,o=UPC").depth()
    2
    >>> dn("CN=Ana, O=UPC").key
    'cn=ana,o=upc'
    """
    return text if isinstance(text, DistinguishedName) else DistinguishedName.parse(text)
