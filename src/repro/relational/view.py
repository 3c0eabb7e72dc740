"""The ``Use`` operator: building the relevant view V_rel.

The first part of every HypeR query (Section 3.1) constructs a single-table
*relevant view* containing one row per tuple of the relation ``R`` that holds
the update attribute, plus (possibly aggregated) attributes drawn from other
relations.  :class:`UseSpec` is the declarative description of that view and
knows how to materialise itself over any database instance with the same
schema — which is what lets the engine evaluate the view both on the observed
database (pre values) and on simulated possible worlds (post values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..exceptions import QuerySemanticsError, SchemaError
from . import columnar
from .aggregates import get_aggregate
from .database import Database
from .relation import Relation
from .schema import ForeignKey

__all__ = ["AggregatedAttribute", "UseSpec"]


@dataclass(frozen=True)
class AggregatedAttribute:
    """An attribute pulled from another relation and aggregated per base tuple.

    For the running example of the paper,
    ``AggregatedAttribute("Rtng", "Review", "Rating", "avg")`` summarises each
    product's review ratings into a single ``Rtng`` column of the relevant view.
    """

    name: str
    relation: str
    attribute: str
    how: str = "avg"

    def __post_init__(self) -> None:
        get_aggregate(self.how)  # validate the aggregate name eagerly


@dataclass
class UseSpec:
    """Declarative description of the relevant view built by the ``Use`` operator.

    Parameters
    ----------
    base_relation:
        The relation ``R`` that contains the update attribute.  The view has
        exactly one row per tuple of ``R`` (identified by its key).
    attributes:
        Attributes of ``R`` to carry into the view.  ``None`` keeps all of them.
    aggregated:
        Attributes from other relations, aggregated per base tuple via a
        foreign-key (or explicitly given) link.
    joins:
        Optional explicit join conditions ``{other_relation: [(base_attr, other_attr), ...]}``.
        When omitted, the database's foreign keys are consulted.
    name:
        Name of the resulting view relation.
    """

    base_relation: str
    attributes: Sequence[str] | None = None
    aggregated: Sequence[AggregatedAttribute] = field(default_factory=tuple)
    joins: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    name: str = "RelevantView"

    # -- helpers -----------------------------------------------------------------

    def view_attribute_names(self, database: Database) -> list[str]:
        """Names of all attributes the materialised view will contain."""
        base_schema = database.schema[self.base_relation]
        base_attrs = list(self.attributes) if self.attributes is not None else list(
            base_schema.attribute_names
        )
        for key_attr in base_schema.key:
            if key_attr not in base_attrs:
                base_attrs.insert(0, key_attr)
        return base_attrs + [agg.name for agg in self.aggregated]

    def column_sources(self, database: Database) -> dict[str, tuple[tuple[str, str], ...]]:
        """The ``(relation, attribute)`` columns each view column is built from: an
        aggregated one from the aggregated attribute and both sides' join columns."""
        base = self.base_relation
        sources = {name: ((base, name),) for name in self.view_attribute_names(database)}
        for agg in self.aggregated:
            joins = [] if agg.relation == base else self._join_condition(database, agg.relation)
            sources[agg.name] = (
                *((base, b) for b, _ in joins),
                *((agg.relation, o) for _, o in joins),
                (agg.relation, agg.attribute),
            )
        return sources

    def _join_condition(self, database: Database, other: str) -> list[tuple[str, str]]:
        """Resolve the join attributes between the base relation and ``other``."""
        if other in self.joins:
            return list(self.joins[other])
        links: list[ForeignKey] = database.schema.links_between(self.base_relation, other)
        if not links:
            raise QuerySemanticsError(
                f"no foreign key links relation {other!r} to the base relation "
                f"{self.base_relation!r}; provide an explicit join condition"
            )
        fk = links[0]
        if fk.parent == self.base_relation:
            return list(zip(fk.parent_attributes, fk.child_attributes))
        return list(zip(fk.child_attributes, fk.parent_attributes))

    # -- materialisation ------------------------------------------------------------

    def build(self, database: Database) -> Relation:
        """Materialise the relevant view over ``database``.

        The result has one row per tuple of the base relation, in base-relation
        order, so the engine can align pre and post views positionally.
        """
        base = database[self.base_relation]
        base_schema = base.schema
        attrs = list(self.attributes) if self.attributes is not None else list(
            base_schema.attribute_names
        )
        for key_attr in base_schema.key:
            if key_attr not in attrs:
                attrs.insert(0, key_attr)
        unknown = [a for a in attrs if a not in base_schema]
        if unknown:
            raise QuerySemanticsError(
                f"Use clause references attributes {unknown} missing from {self.base_relation!r}"
            )
        view = base.project(attrs, name=self.name)

        for agg in self.aggregated:
            if agg.relation == self.base_relation:
                # Aggregating an attribute of the base relation itself is the
                # identity per tuple (each base tuple is its own group).
                values = list(base.column_view(agg.attribute))
                view = view.with_column(agg.name, values)
                continue
            values = self._aggregate_from(database, base, agg)
            view = view.with_column(agg.name, values)
        return view

    def _aggregate_from(
        self, database: Database, base: Relation, agg: AggregatedAttribute
    ) -> list[Any]:
        other = database[agg.relation]
        if agg.attribute not in other.schema:
            raise QuerySemanticsError(
                f"relation {agg.relation!r} has no attribute {agg.attribute!r}"
            )
        condition = self._join_condition(database, agg.relation)
        base_attrs = [b for b, _ in condition]
        other_attrs = [o for _, o in condition]
        for a in base_attrs:
            if a not in base.schema:
                raise SchemaError(f"join attribute {a!r} missing from {base.name!r}")
        for a in other_attrs:
            if a not in other.schema:
                raise SchemaError(f"join attribute {a!r} missing from {other.name!r}")

        base_store, other_store = base.columnar_store(), other.columnar_store()
        return columnar.aggregate_lookup(
            [base_store[a] for a in base_attrs],
            [other_store[a] for a in other_attrs],
            other_store[agg.attribute],
            agg.how,
        )
