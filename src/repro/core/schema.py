"""Relational schemas.

A :class:`Schema` names a relation, fixes an ordered list of attributes
and designates one attribute as the key.  The paper's running example is
the ``EMP`` relation::

    EMP(id, name, sex, grade, street, city, zip, CC, AC, phn, salary, hd)

with ``id`` as the key.  Fragment schemas (for vertical partitions) are
derived with :meth:`Schema.project`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class SchemaError(ValueError):
    """Raised when a schema is malformed or an attribute is unknown."""


@dataclass(frozen=True)
class Attribute:
    """A single named attribute of a relation schema.

    Attributes are value objects: two attributes with the same name are
    interchangeable.  A lightweight ``domain`` tag ("str", "int", ...)
    is carried for documentation and workload generation; the violation
    semantics never depends on it.
    """

    name: str
    domain: str = "str"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Schema:
    """An ordered relation schema with a designated key attribute.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"EMP"``.
    attributes:
        Ordered attribute names (or :class:`Attribute` objects).
    key:
        Name of the key attribute.  Every tuple carries a unique value
        for it; vertical fragments always retain the key so the original
        relation can be reconstructed by joins (Section 2.2 of the
        paper).
    """

    name: str
    attributes: tuple[Attribute, ...]
    key: str

    def __init__(self, name: str, attributes: Sequence[Attribute | str], key: str):
        attrs = tuple(
            a if isinstance(a, Attribute) else Attribute(str(a)) for a in attributes
        )
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {name!r}: {names}")
        if key not in names:
            raise SchemaError(f"key {key!r} is not an attribute of schema {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "key", key)
        # Derived once, outside the dataclass fields (so outside ==, hash and repr).
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_index", {a.name: i for i, a in enumerate(attrs)})

    # -- basic introspection -------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return self._names  # type: ignore[attr-defined]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._index  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[str]:
        return iter(self.attribute_names)

    def __len__(self) -> int:
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Return the 0-based position of ``attribute`` in the schema."""
        try:
            return self._index[attribute]  # type: ignore[attr-defined]
        except KeyError:
            raise SchemaError(
                f"attribute {attribute!r} not in schema {self.name!r}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """Return the :class:`Attribute` object for ``name``."""
        return self.attributes[self.position(name)]

    def validate_attributes(self, names: Iterable[str]) -> tuple[str, ...]:
        """Check that every name is an attribute; return them as a tuple."""
        names = tuple(names)
        for n in names:
            if n not in self:
                raise SchemaError(f"attribute {n!r} not in schema {self.name!r}")
        return names

    # -- derivation ----------------------------------------------------------

    def project(self, attributes: Iterable[str], name: str | None = None) -> "Schema":
        """Return a fragment schema over ``attributes`` (plus the key).

        The key attribute is always included, mirroring the paper's
        requirement that every vertical fragment contains a key of R so
        that D can be reconstructed by joins.
        """
        requested = self.validate_attributes(attributes)
        kept = []
        for attr in self.attribute_names:
            if attr == self.key or attr in requested:
                kept.append(attr)
        return Schema(name or f"{self.name}_frag", kept, self.key)

    def non_key_attributes(self) -> tuple[str, ...]:
        """All attribute names except the key."""
        return tuple(a for a in self.attribute_names if a != self.key)

    def __str__(self) -> str:  # pragma: no cover - trivial
        cols = ", ".join(self.attribute_names)
        return f"{self.name}({cols})"
