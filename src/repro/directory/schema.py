"""Directory schema: attribute types and object classes.

A small but faithful subset of the X.500 schema model: attribute types
declare single/multi-valuedness and case sensitivity; object classes
declare mandatory ("must") and optional ("may") attributes and can inherit.
:func:`standard_schema` builds the object classes the CSCW environment
needs — the paper (section 4) calls for "smooth integration and utilization
of standard information repositories, for example, the X.500 directory
service", and reference [14] discusses exactly this use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ConfigurationError, SchemaViolationError


@dataclass(frozen=True)
class AttributeType:
    """Declaration of one attribute type."""

    name: str
    single_valued: bool = False
    case_sensitive: bool = False
    description: str = ""

    def normalize(self, value: Any) -> Any:
        """Normalize a value for matching (case folding for strings)."""
        if isinstance(value, str) and not self.case_sensitive:
            return value.lower()
        return value


@dataclass
class ObjectClass:
    """Declaration of one object class with inheritance."""

    name: str
    must: set[str] = field(default_factory=set)
    may: set[str] = field(default_factory=set)
    parent: "ObjectClass | None" = None

    def __post_init__(self) -> None:
        # a class never changes once defined, so its inherited and permitted
        # attribute sets are fixed
        parent = self.parent
        self._all_must = frozenset(self.must) | (parent.all_must() if parent else frozenset())
        self._all_may = frozenset(self.may) | (parent.all_may() if parent else frozenset())
        self.permitted = self._all_must | self._all_may

    def all_must(self) -> frozenset[str]:
        """Mandatory attributes including inherited ones."""
        return self._all_must

    def all_may(self) -> frozenset[str]:
        """Optional attributes including inherited ones."""
        return self._all_may

    def permits(self, attribute: str) -> bool:
        """True when the attribute is allowed on entries of this class."""
        return attribute in self.permitted


class Schema:
    """A registry of attribute types and object classes with validation."""

    def __init__(self) -> None:
        self._attributes: dict[str, AttributeType] = {}
        self._classes: dict[str, ObjectClass] = {}
        #: objectClass values -> (mandatory (class, attribute) pairs, permitted
        #: set, single-valued set, sorted class names); definitions drop them
        self._shapes: dict[tuple[str, ...], tuple] = {}
        # objectClass itself is always known.
        self.define_attribute(AttributeType("objectclass"))

    # -- definitions --------------------------------------------------------
    def define_attribute(self, attribute: AttributeType) -> None:
        """Register an attribute type (names are case-insensitive)."""
        key = attribute.name.lower()
        if key in self._attributes:
            raise ConfigurationError(f"attribute {attribute.name!r} already defined")
        self._attributes[key] = attribute
        self._shapes.clear()

    def define_class(
        self,
        name: str,
        must: set[str] | None = None,
        may: set[str] | None = None,
        parent: str | None = None,
    ) -> ObjectClass:
        """Register an object class; attribute names must be defined."""
        key = name.lower()
        if key in self._classes:
            raise ConfigurationError(f"object class {name!r} already defined")
        parent_class = None
        if parent is not None:
            parent_class = self.object_class(parent)
        cls = ObjectClass(
            name=key,
            must={a.lower() for a in (must or set())},
            may={a.lower() for a in (may or set())},
            parent=parent_class,
        )
        for attribute in cls.must | cls.may:
            if attribute not in self._attributes:
                raise ConfigurationError(f"class {name!r} uses undefined attribute {attribute!r}")
        self._classes[key] = cls
        self._shapes.clear()
        return cls

    def attribute(self, name: str) -> AttributeType:
        """Look up an attribute type."""
        try:
            return self._attributes[name.lower()]
        except KeyError:
            raise SchemaViolationError(f"unknown attribute type {name!r}") from None

    def object_class(self, name: str) -> ObjectClass:
        """Look up an object class."""
        try:
            return self._classes[name.lower()]
        except KeyError:
            raise SchemaViolationError(f"unknown object class {name!r}") from None

    def has_class(self, name: str) -> bool:
        """True when the object class is defined."""
        return name.lower() in self._classes

    # -- validation -----------------------------------------------------------
    def validate_entry(self, attributes: dict[str, list[Any]]) -> None:
        """Check an entry against its declared object classes.

        The entry must carry ``objectClass``; every must-attribute of every
        declared class must be present; every attribute present must be
        permitted by at least one class; single-valued attributes must have
        exactly one value.  Raises :class:`SchemaViolationError`.
        """
        normalized = attributes  # the DIT's own entries come lower-cased
        if not all(map(str.islower, attributes)):
            normalized = {k.lower(): v for k, v in attributes.items()}
        class_names = normalized.get("objectclass")
        if not class_names:
            raise SchemaViolationError("entry has no objectClass")
        written = tuple(map(str, class_names))
        shape = self._shapes.get(written)
        if shape is None:
            classes = [self.object_class(name) for name in written]
            permitted = frozenset().union(*(cls.permitted for cls in classes))
            shape = self._shapes[written] = (
                [(cls.name, must) for cls in classes for must in cls.all_must()],
                permitted,
                frozenset(a for a in permitted if self.attribute(a).single_valued),
                sorted(cls.name for cls in classes),
            )
        musts, permitted, single_valued, sorted_names = shape
        for class_name, must in musts:
            if must not in normalized or not normalized[must]:
                raise SchemaViolationError(
                    f"entry of class {class_name!r} is missing mandatory attribute {must!r}"
                )
        for attribute, values in normalized.items():
            if attribute == "objectclass":
                continue
            if attribute not in permitted:
                raise SchemaViolationError(
                    f"attribute {attribute!r} not permitted by classes {sorted_names}"
                )
            if attribute in single_valued and len(values) != 1:
                raise SchemaViolationError(
                    f"single-valued attribute {attribute!r} has {len(values)} values"
                )


def standard_schema() -> Schema:
    """The stock schema used throughout the library.

    Covers the classic X.521-style classes (country, organization,
    organizationalUnit, person, applicationEntity, groupOfNames, device)
    plus CSCW-specific classes the MOCCA environment stores: cscwActivity,
    cscwRole and cscwService.
    """
    schema = Schema()
    for name, kwargs in [
        ("c", {"single_valued": True}),
        ("o", {"single_valued": True}),
        ("ou", {}),
        ("cn", {}),
        ("sn", {}),
        ("title", {}),
        ("mail", {}),
        ("telephonenumber", {}),
        ("faxnumber", {}),
        ("description", {}),
        ("member", {}),
        ("seealso", {}),
        ("presentationaddress", {"single_valued": True}),
        ("localityname", {}),
        ("role", {}),
        ("activitystatus", {"single_valued": True}),
        ("deadline", {"single_valued": True}),
        ("servicetype", {}),
        ("interfaceref", {"single_valued": True}),
        ("capability", {}),
        ("responsibility", {}),
        ("aliasedobjectname", {"single_valued": True}),
    ]:
        schema.define_attribute(AttributeType(name, **kwargs))

    schema.define_class("top", may={"description"})
    schema.define_class("alias", must={"aliasedobjectname"}, may={"cn", "ou"}, parent="top")
    schema.define_class("country", must={"c"}, parent="top")
    schema.define_class("organization", must={"o"}, may={"localityname", "telephonenumber"}, parent="top")
    schema.define_class("organizationalunit", must={"ou"}, may={"localityname", "telephonenumber"}, parent="top")
    schema.define_class(
        "person",
        must={"cn", "sn"},
        may={"title", "mail", "telephonenumber", "faxnumber", "seealso", "role", "capability", "responsibility"},
        parent="top",
    )
    schema.define_class(
        "applicationentity",
        must={"cn", "presentationaddress"},
        may={"servicetype", "interfaceref"},
        parent="top",
    )
    schema.define_class("groupofnames", must={"cn", "member"}, parent="top")
    schema.define_class("device", must={"cn"}, may={"localityname"}, parent="top")
    schema.define_class(
        "cscwactivity",
        must={"cn"},
        may={"member", "role", "activitystatus", "deadline", "seealso"},
        parent="top",
    )
    schema.define_class("cscwrole", must={"cn"}, may={"member", "responsibility"}, parent="top")
    schema.define_class(
        "cscwservice",
        must={"cn", "servicetype"},
        may={"interfaceref", "presentationaddress"},
        parent="top",
    )
    return schema
