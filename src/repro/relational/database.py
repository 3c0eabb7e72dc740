"""Multi-relation database container."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..exceptions import SchemaError
from .relation import Relation
from .schema import DatabaseSchema, ForeignKey

__all__ = ["Database"]


class Database:
    """A named collection of :class:`Relation` objects plus foreign-key links.

    The database plays the role of ``D`` in the paper: both a schema and an
    instance.  It offers attribute resolution (update/output attributes may be
    written unqualified when unambiguous), referential-integrity checking, and
    construction of modified copies (used to materialise possible worlds).
    """

    def __init__(
        self,
        relations: Iterable[Relation],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        rels = list(relations)
        self._relations: dict[str, Relation] = {r.name: r for r in rels}
        if len(self._relations) != len(rels):
            raise SchemaError("duplicate relation names in database")
        self.schema = DatabaseSchema([r.schema for r in rels], foreign_keys)

    # -- access -------------------------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, relation: str) -> bool:
        return relation in self._relations

    def __getitem__(self, relation: str) -> Relation:
        try:
            return self._relations[relation]
        except KeyError as exc:
            raise SchemaError(
                f"unknown relation {relation!r}; known: {list(self._relations)}"
            ) from exc

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def total_rows(self) -> int:
        return sum(len(rel) for rel in self)

    def resolve_attribute(self, attribute: str) -> tuple[str, str]:
        """Resolve an (optionally qualified) attribute name to ``(relation, attribute)``."""
        return self.schema.resolve_attribute(attribute)

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        return self.schema.foreign_keys

    # -- construction of modified copies ---------------------------------------------

    def with_relation(self, relation: Relation) -> "Database":
        """Return a database where ``relation`` replaces the relation of the same name."""
        if relation.name not in self._relations:
            raise SchemaError(f"cannot replace unknown relation {relation.name!r}")
        replaced = [
            relation if rel.name == relation.name else rel for rel in self
        ]
        return Database(replaced, self.foreign_keys)

    def subset(self, row_masks: Mapping[str, Iterable[bool]]) -> "Database":
        """Return a database restricted to the rows selected per relation.

        Relations not mentioned in ``row_masks`` are kept unchanged.  Used by
        the block-independent decomposition to build per-block databases.
        """
        new_relations = []
        for rel in self:
            if rel.name in row_masks:
                new_relations.append(rel.filter(list(row_masks[rel.name])))
            else:
                new_relations.append(rel)
        return Database(new_relations, self.foreign_keys)

    def describe(self) -> str:
        """Short human-readable summary used by examples."""
        lines = []
        for rel in self:
            lines.append(
                f"{rel.name}: {len(rel)} rows, key={list(rel.schema.key)}, "
                f"attributes={list(rel.attribute_names)}"
            )
        for fk in self.foreign_keys:
            lines.append(
                f"FK {fk.child}.{list(fk.child_attributes)} -> "
                f"{fk.parent}.{list(fk.parent_attributes)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Database({', '.join(f'{r.name}[{len(r)}]' for r in self)})"
