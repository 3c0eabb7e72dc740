"""Referential integrity, checked row by row: the oracle the dataset, CSV and
database tests hold generated and loaded instances to."""

from __future__ import annotations

from repro.exceptions import SchemaError
from repro.relational import Database


def check_referential_integrity(database: Database) -> None:
    """Raise :class:`SchemaError` when a foreign-key value has no parent row."""
    for fk in database.foreign_keys:
        parent = database[fk.parent]
        child = database[fk.child]
        parent_keys = {
            tuple(parent.column_view(a)[i] for a in fk.parent_attributes)
            for i in range(len(parent))
        }
        for i in range(len(child)):
            value = tuple(child.column_view(a)[i] for a in fk.child_attributes)
            if value not in parent_keys:
                raise SchemaError(
                    f"referential integrity violation: {fk.child}.{fk.child_attributes} "
                    f"value {value} has no match in {fk.parent}"
                )
