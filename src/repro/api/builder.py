"""Fluent, typed query builder for the public API.

The builder constructs :mod:`repro.lang` ASTs directly — no string
round-trip — and produces exactly the query objects the parser would, so a
builder-made query and its text-parsed equivalent have identical
:meth:`~repro.relational.expressions.Expr.canonical` keys, identical plan
fingerprints, and therefore share every service cache entry::

    from repro.api import what_if, set_, avg
    from repro.relational import pre

    query = (
        what_if()
        .use("Credit")
        .when(pre("Age") >= 30)
        .update(set_("CreditAmount", 1000))
        .output(avg("Risk"))
        .build()
    )

Builders are **immutable**: every fluent call returns a new builder, so a
partially-configured builder can be reused as a template.  ``build()``
validates and returns the query object; ``text()`` renders the canonical
query text through :func:`repro.lang.unparse`.  Anything that accepts query
text (``HypeRService.execute``, ``HypeRClient.query``) also accepts a builder
or a built query object directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Sequence

from ..core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from ..core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo
from ..exceptions import QuerySemanticsError
from ..relational.expressions import Expr
from ..relational.predicates import TRUE
from ..relational.view import AggregatedAttribute, UseSpec

__all__ = [
    "AggTerm",
    "as_query_object",
    "QueryBuilder",
    "WhatIfBuilder",
    "HowToBuilder",
    "what_if",
    "how_to",
    "set_",
    "add",
    "multiply",
    "avg",
    "sum_",
    "count",
]


class AggTerm(NamedTuple):
    """An ``AGG(Post(attribute))`` term (the Output / ToMaximize clause)."""

    aggregate: str
    attribute: str


def avg(attribute: str) -> AggTerm:
    """``AVG(Post(attribute))``."""
    return AggTerm("avg", attribute)


def sum_(attribute: str) -> AggTerm:
    """``SUM(Post(attribute))``."""
    return AggTerm("sum", attribute)


def count(attribute: str) -> AggTerm:
    """``COUNT(Post(attribute))``."""
    return AggTerm("count", attribute)


def set_(attribute: str, value: Any) -> AttributeUpdate:
    """``UPDATE(attribute) = value``."""
    return AttributeUpdate(attribute, SetTo(value))


def add(attribute: str, delta: float) -> AttributeUpdate:
    """``UPDATE(attribute) = delta + PRE(attribute)``."""
    return AttributeUpdate(attribute, AddConstant(delta))


def multiply(attribute: str, factor: float) -> AttributeUpdate:
    """``UPDATE(attribute) = factor * PRE(attribute)``."""
    return AttributeUpdate(attribute, MultiplyBy(factor))


def _as_agg_term(term: AggTerm | str) -> AggTerm:
    """Accept ``avg("Risk")`` or a bare attribute name (defaulting to AVG)."""
    if isinstance(term, AggTerm):
        return term
    if isinstance(term, str):
        return AggTerm("avg", term)
    raise QuerySemanticsError(
        f"expected an aggregate term (avg/sum_/count) or attribute name, got {term!r}"
    )


class QueryBuilder:
    """Base class of the fluent builders; the service layer accepts any of them.

    Each builder defines ``build()``, the query object it describes."""

    def text(self) -> str:
        """Canonical query text (via :func:`repro.lang.unparse`)."""
        from ..lang.unparse import unparse

        return unparse(self.build())

    @property
    def wants_trace(self) -> bool:
        """Whether ``.trace()`` asked the server for this query's span tree."""
        return getattr(self, "_trace", False)


@dataclass(frozen=True)
class _UseState:
    relation: str | None = None
    attributes: tuple[str, ...] | None = None
    aggregated: tuple[AggregatedAttribute, ...] = ()

    def spec(self, owner: str) -> UseSpec:
        if self.relation is None:
            raise QuerySemanticsError(f"a {owner} query needs .use(<relation>) first")
        return UseSpec(
            base_relation=self.relation,
            attributes=list(self.attributes) if self.attributes is not None else None,
            aggregated=list(self.aggregated),
        )


@dataclass(frozen=True)
class WhatIfBuilder(QueryBuilder):
    """Builds a :class:`~repro.core.queries.WhatIfQuery` fluently."""

    _use: _UseState = field(default_factory=_UseState)
    _updates: tuple[AttributeUpdate, ...] = ()
    _when: Expr = TRUE
    _for: Expr = TRUE
    _output: AggTerm | None = None
    _name: str = "what-if"
    _trace: bool = False

    def trace(self) -> "WhatIfBuilder":
        """Ask the server for the query's span tree (``?trace=1``)."""
        return replace(self, _trace=True)

    # -- clauses -----------------------------------------------------------------------

    def use(self, relation: str, *attributes: str) -> "WhatIfBuilder":
        """The ``USE`` clause: base relation plus an optional projection list."""
        return replace(
            self,
            _use=replace(
                self._use,
                relation=relation,
                attributes=tuple(attributes) if attributes else None,
            ),
        )

    def with_aggregate(
        self, name: str, relation: str, attribute: str, how: str = "avg"
    ) -> "WhatIfBuilder":
        """``WITH how(relation.attribute) AS name`` — a joined, aggregated column."""
        aggregated = (*self._use.aggregated, AggregatedAttribute(name, relation, attribute, how))
        return replace(self, _use=replace(self._use, aggregated=aggregated))

    def update(self, *updates: AttributeUpdate) -> "WhatIfBuilder":
        """Append ``UPDATE`` clauses (see :func:`set_`, :func:`add`, :func:`multiply`)."""
        for update in updates:
            if not isinstance(update, AttributeUpdate):
                raise QuerySemanticsError(
                    f".update() takes set_/add/multiply terms, got {update!r}"
                )
        return replace(self, _updates=(*self._updates, *updates))

    def when(self, predicate: Expr) -> "WhatIfBuilder":
        """The ``WHEN`` scope predicate (pre values only)."""
        return replace(self, _when=predicate)

    def for_(self, predicate: Expr) -> "WhatIfBuilder":
        """The ``FOR`` output filter (may mix ``pre(...)`` and ``post(...)``)."""
        return replace(self, _for=predicate)

    def output(self, term: AggTerm | str) -> "WhatIfBuilder":
        """The ``OUTPUT`` clause (see :func:`avg`, :func:`sum_`, :func:`count`)."""
        return replace(self, _output=_as_agg_term(term))

    # -- terminal ----------------------------------------------------------------------

    def build(self) -> WhatIfQuery:
        if self._output is None:
            raise QuerySemanticsError(
                "a what-if query needs .output(avg(...)/sum_(...)/count(...))"
            )
        return WhatIfQuery(
            use=self._use.spec("what-if"),
            updates=list(self._updates),
            output_attribute=self._output.attribute,
            output_aggregate=self._output.aggregate,
            when=self._when,
            for_clause=self._for,
            name=self._name,
        )


@dataclass(frozen=True)
class HowToBuilder(QueryBuilder):
    """Builds a :class:`~repro.core.queries.HowToQuery` fluently."""

    _use: _UseState = field(default_factory=_UseState)
    _attributes: tuple[str, ...] = ()
    _limits: tuple[LimitConstraint, ...] = ()
    _objective: AggTerm | None = None
    _maximize: bool = True
    _when: Expr = TRUE
    _for: Expr = TRUE
    _max_updates: int | None = None
    _multipliers: tuple[float, ...] | None = None
    _buckets: int | None = None
    _name: str = "how-to"
    _trace: bool = False

    def trace(self) -> "HowToBuilder":
        """Ask the server for the query's span tree (``?trace=1``)."""
        return replace(self, _trace=True)

    # -- clauses -----------------------------------------------------------------------

    def use(self, relation: str, *attributes: str) -> "HowToBuilder":
        """The ``USE`` clause: base relation plus an optional projection list."""
        return replace(
            self,
            _use=replace(
                self._use,
                relation=relation,
                attributes=tuple(attributes) if attributes else None,
            ),
        )

    def with_aggregate(
        self, name: str, relation: str, attribute: str, how: str = "avg"
    ) -> "HowToBuilder":
        """``WITH how(relation.attribute) AS name`` — a joined, aggregated column."""
        aggregated = (*self._use.aggregated, AggregatedAttribute(name, relation, attribute, how))
        return replace(self, _use=replace(self._use, aggregated=aggregated))

    def update_any(self, *attributes: str) -> "HowToBuilder":
        """The ``HOWTOUPDATE`` clause: attributes the optimiser may change."""
        if not attributes:
            raise QuerySemanticsError(".update_any() needs at least one attribute")
        return replace(self, _attributes=(*self._attributes, *attributes))

    def limit(
        self,
        attribute: str | LimitConstraint,
        *,
        lower: float | None = None,
        upper: float | None = None,
        values: Sequence[Any] | None = None,
        max_l1: float | None = None,
    ) -> "HowToBuilder":
        """Append one ``LIMIT`` condition (range, permissible values, or L1 budget)."""
        if isinstance(attribute, LimitConstraint):
            constraint = attribute
        else:
            constraint = LimitConstraint(
                attribute=attribute,
                lower=lower,
                upper=upper,
                allowed_values=tuple(values) if values is not None else None,
                max_l1=max_l1,
            )
        return replace(self, _limits=(*self._limits, constraint))

    def maximize(self, term: AggTerm | str) -> "HowToBuilder":
        """``TOMAXIMIZE agg(Post(attribute))``."""
        return replace(self, _objective=_as_agg_term(term), _maximize=True)

    def minimize(self, term: AggTerm | str) -> "HowToBuilder":
        """``TOMINIMIZE agg(Post(attribute))``."""
        return replace(self, _objective=_as_agg_term(term), _maximize=False)

    def when(self, predicate: Expr) -> "HowToBuilder":
        """The ``WHEN`` scope predicate (pre values only)."""
        return replace(self, _when=predicate)

    def for_(self, predicate: Expr) -> "HowToBuilder":
        """The ``FOR`` output filter (may mix ``pre(...)`` and ``post(...)``)."""
        return replace(self, _for=predicate)

    def max_changes(self, n: int) -> "HowToBuilder":
        """Budget the number of attributes the optimiser may change."""
        return replace(self, _max_updates=n)

    def candidates(
        self,
        *,
        buckets: int | None = None,
        multipliers: Sequence[float] | None = None,
    ) -> "HowToBuilder":
        """Tune the candidate grid (histogram buckets / multiplier set)."""
        return replace(
            self,
            _buckets=buckets if buckets is not None else self._buckets,
            _multipliers=tuple(multipliers) if multipliers is not None else self._multipliers,
        )

    # -- terminal ----------------------------------------------------------------------

    def build(self) -> HowToQuery:
        if self._objective is None:
            raise QuerySemanticsError(
                "a how-to query needs .maximize(...) or .minimize(...)"
            )
        if not self._attributes:
            raise QuerySemanticsError("a how-to query needs .update_any(<attributes>)")
        kwargs: dict[str, Any] = {}
        if self._multipliers is not None:
            kwargs["candidate_multipliers"] = self._multipliers
        if self._buckets is not None:
            kwargs["candidate_buckets"] = self._buckets
        return HowToQuery(
            use=self._use.spec("how-to"),
            update_attributes=list(self._attributes),
            objective_attribute=self._objective.attribute,
            objective_aggregate=self._objective.aggregate,
            maximize=self._maximize,
            when=self._when,
            for_clause=self._for,
            limits=list(self._limits),
            max_updates=self._max_updates,
            name=self._name,
            **kwargs,
        )


def as_query_object(query: Any) -> WhatIfQuery | HowToQuery:
    """Coerce a built query or fluent builder into a query object.

    The single definition of "what counts as a builder", shared by every
    entry point that accepts one (:meth:`HypeRService.execute`,
    :meth:`HypeR.execute`, :meth:`HypeRClient.query`), so the accepted-input
    contract cannot drift between them.  Query text is *not* handled here —
    each entry point treats strings differently (parse vs send).
    """
    if isinstance(query, (WhatIfQuery, HowToQuery)):
        return query
    if isinstance(query, QueryBuilder):
        return query.build()
    raise QuerySemanticsError(
        f"expected a query object or a fluent builder, got {type(query).__name__}"
    )


def what_if(name: str = "what-if") -> WhatIfBuilder:
    """Start a fluent what-if query: ``what_if().use(...).update(...).output(...)``."""
    return WhatIfBuilder(_name=name)


def how_to(name: str = "how-to") -> HowToBuilder:
    """Start a fluent how-to query: ``how_to().use(...).update_any(...).maximize(...)``."""
    return HowToBuilder(_name=name)
