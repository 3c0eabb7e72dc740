"""Relation and database schemas.

A :class:`RelationSchema` declares, for each attribute, its domain and whether it
is *mutable* (may change value in a possible world / hypothetical update) or
*immutable* (keys and fixed descriptors, Section 2 of the paper).  A
:class:`DatabaseSchema` is a named collection of relation schemas plus optional
foreign-key links, which the Use-view builder and the ground-causal-graph
constructor both consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..exceptions import SchemaError
from .types import Domain, infer_domain

__all__ = ["AttributeSpec", "RelationSchema", "ForeignKey", "DatabaseSchema"]


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of a single attribute of a relation."""

    name: str
    domain: Domain
    mutable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("attribute names must be non-empty strings")


class RelationSchema:
    """Schema of a single relation: ordered attributes, key, mutability flags."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[AttributeSpec],
        key: Iterable[str],
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        attrs = list(attributes)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {name!r}: {names}")
        key_attrs = tuple(key)
        if not key_attrs:
            raise SchemaError(f"relation {name!r} must declare a (primary) key")
        missing = [k for k in key_attrs if k not in names]
        if missing:
            raise SchemaError(f"key attributes {missing} not declared in relation {name!r}")
        # Keys are always immutable (Section 2 of the paper).
        normalized = []
        for attr in attrs:
            if attr.name in key_attrs and attr.mutable:
                normalized.append(AttributeSpec(attr.name, attr.domain, mutable=False))
            else:
                normalized.append(attr)
        self.name = name
        self._attributes: dict[str, AttributeSpec] = {a.name: a for a in normalized}
        self._order: tuple[str, ...] = tuple(names)
        self.key: tuple[str, ...] = key_attrs

    # -- lookup ----------------------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._order

    @property
    def attributes(self) -> list[AttributeSpec]:
        return [self._attributes[n] for n in self._order]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attributes

    def __getitem__(self, attribute: str) -> AttributeSpec:
        try:
            return self._attributes[attribute]
        except KeyError as exc:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"known attributes: {list(self._order)}"
            ) from exc

    def domain(self, attribute: str) -> Domain:
        return self[attribute].domain

    def is_mutable(self, attribute: str) -> bool:
        return self[attribute].mutable

    @property
    def mutable_attributes(self) -> tuple[str, ...]:
        return tuple(n for n in self._order if self._attributes[n].mutable)

    # -- manipulation ----------------------------------------------------------

    def with_attribute(self, spec: AttributeSpec) -> "RelationSchema":
        """Return a copy of this schema with ``spec`` replaced in position, or appended if new."""
        attrs = [spec if a.name == spec.name else a for a in self.attributes]
        if spec.name not in self:
            attrs.append(spec)
        return RelationSchema(self.name, attrs, self.key)

    def project(self, attributes: Iterable[str], name: str | None = None) -> "RelationSchema":
        """Return a schema restricted to ``attributes`` (key attributes must be kept)."""
        keep = list(attributes)
        missing = [a for a in keep if a not in self]
        if missing:
            raise SchemaError(f"cannot project onto unknown attributes {missing}")
        missing_key = [k for k in self.key if k not in keep]
        if missing_key:
            raise SchemaError(
                f"projection must retain the key of {self.name!r}; missing {missing_key}"
            )
        return RelationSchema(name or self.name, [self[a] for a in keep], self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.key == other.key
            and self.attribute_names == other.attribute_names
            and all(self[a] == other[a] for a in self.attribute_names)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(
            f"{a.name}{'*' if a.name in self.key else ''}{'' if a.mutable else ' (imm)'}"
            for a in self.attributes
        )
        return f"RelationSchema({self.name}: {cols})"

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Iterable[Any]],
        key: Iterable[str],
        immutable: Iterable[str] = (),
        domains: Mapping[str, Domain] | None = None,
    ) -> "RelationSchema":
        """Build a schema by inferring domains from column data."""
        domains = dict(domains or {})
        immutable_set = set(immutable)
        specs = []
        for col_name, values in columns.items():
            domain = domains.get(col_name) or infer_domain(list(values))
            specs.append(
                AttributeSpec(col_name, domain, mutable=col_name not in immutable_set)
            )
        return cls(name, specs, key)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key link ``child.child_attrs -> parent.parent_attrs``."""

    child: str
    child_attributes: tuple[str, ...]
    parent: str
    parent_attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_attributes) != len(self.parent_attributes):
            raise SchemaError("foreign key must link an equal number of attributes")
        if not self.child_attributes:
            raise SchemaError("foreign key must link at least one attribute")


class DatabaseSchema:
    """Named collection of relation schemas with optional foreign keys."""

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        rels = list(relations)
        names = [r.name for r in rels]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate relation names: {names}")
        self._relations: dict[str, RelationSchema] = {r.name: r for r in rels}
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        for rel_name, attrs in ((fk.child, fk.child_attributes), (fk.parent, fk.parent_attributes)):
            if rel_name not in self._relations:
                raise SchemaError(f"foreign key references unknown relation {rel_name!r}")
            schema = self._relations[rel_name]
            missing = [a for a in attrs if a not in schema]
            if missing:
                raise SchemaError(
                    f"foreign key references unknown attributes {missing} of {rel_name!r}"
                )

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, relation: str) -> bool:
        return relation in self._relations

    def __getitem__(self, relation: str) -> RelationSchema:
        try:
            return self._relations[relation]
        except KeyError as exc:
            raise SchemaError(
                f"unknown relation {relation!r}; known relations: {list(self._relations)}"
            ) from exc

    def resolve_attribute(self, attribute: str) -> tuple[str, str]:
        """Resolve ``attribute`` (optionally ``Relation.Attribute``) to a unique pair.

        The paper assumes update/output attributes appear in a single relation;
        this helper enforces that and raises :class:`SchemaError` on ambiguity.
        """
        if "." in attribute:
            rel, attr = attribute.split(".", 1)
            schema = self[rel]
            if attr not in schema:
                raise SchemaError(f"relation {rel!r} has no attribute {attr!r}")
            return rel, attr
        owners = [name for name, schema in self._relations.items() if attribute in schema]
        if not owners:
            raise SchemaError(f"no relation declares attribute {attribute!r}")
        if len(owners) > 1:
            raise SchemaError(
                f"attribute {attribute!r} is ambiguous across relations {owners}; "
                "qualify it as Relation.Attribute"
            )
        return owners[0], attribute

    def links_between(self, relation_a: str, relation_b: str) -> list[ForeignKey]:
        """Foreign keys connecting ``relation_a`` and ``relation_b`` in either direction."""
        out = []
        for fk in self.foreign_keys:
            if {fk.child, fk.parent} == {relation_a, relation_b}:
                out.append(fk)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"DatabaseSchema({', '.join(self._relations)})"
