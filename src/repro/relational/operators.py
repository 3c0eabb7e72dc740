"""Relational algebra operators: selection, projection, join, group-by.

These are the building blocks of the ``Use`` operator in HypeR queries: the
relevant view is "a standard group-by SQL query" joining the relation holding
the update attribute with the relations holding the output and filter
attributes, aggregating the latter per key of the former (Section 3.1).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..exceptions import SchemaError
from . import columnar
from .aggregates import get_aggregate
from .expressions import Expr
from .predicates import evaluate_mask
from .relation import Relation
from .schema import AttributeSpec, RelationSchema
from .types import infer_domain

__all__ = ["select", "project", "equi_join", "group_by"]


def select(relation: Relation, predicate: Expr) -> Relation:
    """Selection: rows of ``relation`` where ``predicate`` holds (pre values)."""
    mask = evaluate_mask(predicate, relation)
    return relation.filter(mask)


def project(relation: Relation, attributes: Sequence[str], name: str | None = None) -> Relation:
    """Projection onto ``attributes`` (the key must be retained)."""
    return relation.project(attributes, name=name)


def equi_join(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    *,
    name: str | None = None,
    how: str = "inner",
) -> Relation:
    """Equi-join of two relations.

    ``on`` is a list of ``(left_attribute, right_attribute)`` pairs.  Attributes
    of the right relation that collide with left attribute names are prefixed
    with ``<right_name>_``.  ``how`` may be ``"inner"`` or ``"left"``; a left
    join pads unmatched right attributes with ``None``.
    """
    if how not in ("inner", "left"):
        raise SchemaError(f"unsupported join type {how!r}")
    if not on:
        raise SchemaError("equi_join requires at least one join attribute pair")
    for l_attr, r_attr in on:
        if l_attr not in left.schema:
            raise SchemaError(f"join attribute {l_attr!r} missing from {left.name!r}")
        if r_attr not in right.schema:
            raise SchemaError(f"join attribute {r_attr!r} missing from {right.name!r}")

    join_right_attrs = {r for _, r in on}
    left_attrs = list(left.attribute_names)
    right_attrs = [a for a in right.attribute_names if a not in join_right_attrs]
    renamed = {
        a: a if a not in left_attrs else f"{right.name}_{a}" for a in right_attrs
    }

    schema = _join_schema(left, right, left_attrs, right_attrs, renamed, join_right_attrs, name)

    left_store, right_store = left.columnar_store(), right.columnar_store()
    left_idx, right_idx = columnar.join_indices(
        [left_store[l] for l, _ in on], [right_store[r] for _, r in on], how=how
    )
    out_store = {a: left_store[a].take(left_idx) for a in left_attrs}
    out_store.update({renamed[a]: right_store[a].take(right_idx) for a in right_attrs})
    store = columnar.ColumnStore(
        {a: out_store[a] for a in schema.attribute_names}, len(left_idx)
    )
    return Relation.from_colstore(schema, store)


def _join_schema(
    left: Relation,
    right: Relation,
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
    renamed: Mapping[str, str],
    join_right_attrs: set[str],
    name: str | None,
) -> RelationSchema:
    """Output schema of an equi-join: left key plus surviving right key attrs."""
    out_attrs = set(left_attrs) | {renamed[a] for a in right_attrs}
    right_key_attrs = [renamed.get(a, a) for a in right.schema.key if a not in join_right_attrs]
    key = list(left.schema.key) + [a for a in right_key_attrs if a in out_attrs]
    specs = []
    for a in left_attrs:
        spec = left.schema[a]
        specs.append(AttributeSpec(a, spec.domain, mutable=spec.mutable))
    for a in right_attrs:
        spec = right.schema[a]
        specs.append(AttributeSpec(renamed[a], spec.domain, mutable=spec.mutable))
    return RelationSchema(name or f"{left.name}_join_{right.name}", specs, key)


def group_by(
    relation: Relation,
    by: Sequence[str],
    aggregations: Mapping[str, tuple[str, str]],
    *,
    name: str | None = None,
    key: Iterable[str] | None = None,
) -> Relation:
    """Group ``relation`` by ``by`` and compute named aggregations.

    ``aggregations`` maps output column name to ``(source_attribute, aggregate)``
    where aggregate is ``"sum" | "count" | "avg"``.  The grouping attributes keep
    their original schema specs; aggregated columns become numeric and mutable.
    """
    for attr in by:
        if attr not in relation.schema:
            raise SchemaError(f"group-by attribute {attr!r} missing from {relation.name!r}")
    for out_name, (source, _how) in aggregations.items():
        if source not in relation.schema:
            raise SchemaError(f"aggregation source {source!r} missing from {relation.name!r}")
        if out_name in by:
            raise SchemaError(f"aggregation output {out_name!r} collides with a group-by attribute")

    store = relation.columnar_store()
    group_ids, representatives = columnar.group_rows([store[a] for a in by])
    n_groups = len(representatives)
    out_columns: dict[str, Any] = {a: store[a].values_list(representatives) for a in by}
    for out_name, (source, how) in aggregations.items():
        out_columns[out_name] = columnar.grouped_aggregate(
            store[source], group_ids, n_groups, get_aggregate(how).name
        )

    specs = [
        AttributeSpec(a, relation.schema[a].domain, mutable=relation.schema[a].mutable)
        for a in by
    ]
    for out_name in aggregations:
        agg_values = out_columns[out_name]
        specs.append(
            AttributeSpec(
                out_name,
                infer_domain(agg_values if len(agg_values) else [0.0]),
                mutable=True,
            )
        )
    group_key_attrs = tuple(key) if key is not None else tuple(by)
    missing_key = [k for k in group_key_attrs if k not in by]
    if missing_key:
        raise SchemaError(f"group-by key attributes {missing_key} are not grouping columns")
    schema = RelationSchema(name or f"{relation.name}_grouped", specs, group_key_attrs)
    return Relation(schema, out_columns, validate=False)
