"""Unparser: canonical HypeR SQL-extension text for query objects.

:func:`unparse` is the inverse of :func:`repro.lang.parser.parse_query`: it
renders a :class:`~repro.core.queries.WhatIfQuery` /
:class:`~repro.core.queries.HowToQuery` (however it was constructed — parsed
from text, built with the fluent builder of :mod:`repro.api.builder`, or
assembled by hand) back into query text that parses to an **identical** AST:

* ``parse(unparse(parse(text)))`` equals ``parse(text)`` clause-for-clause
  (same :meth:`~repro.relational.expressions.Expr.canonical` keys), and
* ``fingerprint(parse(unparse(q)))`` equals ``fingerprint(q)`` for any
  expressible query ``q``, so builder-made and text-parsed queries share every
  plan-fingerprint-keyed service cache.

Queries whose components have no surface syntax (explicit ``UseSpec.joins``,
arithmetic inside predicates, non-default how-to candidate grids) raise
:class:`~repro.exceptions.UnparseError` instead of silently emitting text
that would parse differently.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from ..core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo
from ..exceptions import UnparseError
from ..relational.expressions import (
    Attr,
    BooleanExpr,
    Comparison,
    Const,
    Expr,
    InSet,
    Not,
    Temporal,
)
from ..relational.predicates import TRUE
from ..relational.view import UseSpec
from .lexer import KEYWORDS

__all__ = ["unparse", "unparse_expr"]

#: canonical text of the true predicate (an omitted WHEN/FOR clause)
_TRUE_KEY = TRUE.canonical()

#: how-to fields without surface syntax must sit at their parser defaults
_HOWTO_DEFAULTS = {
    "max_updates": None,
    "candidate_multipliers": (0.8, 0.9, 1.1, 1.2, 1.5),
    "candidate_buckets": 6,
}


def _format_number(value: Any) -> str:
    """A numeric literal the lexer tokenizes back to an equal value."""
    if isinstance(value, bool):  # bool is an int subclass; keep it out
        raise UnparseError(f"expected a number, got boolean {value!r}")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if not np.isfinite(number):
        raise UnparseError(f"cannot unparse non-finite number {number!r}")
    # the lexer has no exponent form; positional notation round-trips exactly
    return np.format_float_positional(number, trim="-")


def _format_string(value: str) -> str:
    for quote in ("'", '"'):
        if quote not in value:
            return f"{quote}{value}{quote}"
    raise UnparseError(
        f"string literal {value!r} mixes both quote characters; "
        "the query language has no escape syntax for it"
    )


def _format_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, (bool, np.bool_)):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return _format_number(value)
    if isinstance(value, str):
        return _format_string(value)
    raise UnparseError(f"literal {value!r} has no query-text form")


def _is_identifier(name: str) -> bool:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


def _format_identifier(name: str, *, allow_keyword: bool) -> str:
    """An identifier token; keywords are only legal inside ``Pre(...)``-style parens."""
    if not _is_identifier(name):
        raise UnparseError(f"{name!r} is not a legal identifier in query text")
    if not allow_keyword and name.lower() in KEYWORDS:
        raise UnparseError(
            f"attribute {name!r} collides with a reserved keyword; "
            f"reference it as Pre({name}) or Post({name}) instead"
        )
    return name


def _format_attr(attr: Attr) -> str:
    if attr.temporal is Temporal.PRE:
        return f"PRE({_format_identifier(attr.name, allow_keyword=True)})"
    if attr.temporal is Temporal.POST:
        return f"POST({_format_identifier(attr.name, allow_keyword=True)})"
    return _format_identifier(attr.name, allow_keyword=False)


def _format_operand(expr: Expr) -> str:
    """An operand of a comparison / membership test (the grammar's ``operand``)."""
    if isinstance(expr, Attr):
        return _format_attr(expr)
    if isinstance(expr, Const):
        return _format_literal(expr.value)
    raise UnparseError(
        f"expression {expr!r} cannot appear as a comparison operand in query text"
    )


def unparse_expr(expr: Expr) -> str:
    """Render a predicate tree; parsing the result rebuilds the identical tree."""
    if isinstance(expr, Comparison):
        op = "=" if expr.op == "==" else expr.op
        return f"{_format_operand(expr.left)} {op} {_format_operand(expr.right)}"
    if isinstance(expr, InSet):
        if not expr.values:
            raise UnparseError("IN (...) needs at least one value")
        values = ", ".join(_format_literal(v) for v in expr.values)
        return f"{_format_operand(expr.operand)} IN ({values})"
    if isinstance(expr, Not):
        inner = expr.operand
        if isinstance(inner, BooleanExpr):
            return f"NOT ({unparse_expr(inner)})"
        if isinstance(inner, (Comparison, InSet, Not)):
            return f"NOT {unparse_expr(inner)}"
        raise UnparseError(f"NOT over {inner!r} has no query-text form")
    if isinstance(expr, BooleanExpr):
        joiner = " AND " if expr.op == "and" else " OR "
        parts = []
        for operand in expr.operands:
            rendered = unparse_expr(operand)
            # parenthesize nested boolean operands so n-ary nesting (and the
            # AND/OR precedence) survives the round-trip without flattening
            if isinstance(operand, BooleanExpr):
                rendered = f"({rendered})"
            parts.append(rendered)
        return joiner.join(parts)
    raise UnparseError(f"expression {expr!r} has no predicate surface syntax")


def _is_true(expr: Expr) -> bool:
    return expr.canonical() == _TRUE_KEY


def _unparse_use(use: UseSpec) -> str:
    if use.joins:
        raise UnparseError(
            "explicit UseSpec.joins have no surface syntax; "
            "rely on schema foreign keys for unparsable queries"
        )
    parts = [f"USE {_format_identifier(use.base_relation, allow_keyword=True)}"]
    if use.attributes is not None:
        attrs = ", ".join(
            _format_identifier(a, allow_keyword=True) for a in use.attributes
        )
        parts.append(f"({attrs})")
    if use.aggregated:
        rendered = []
        for agg in use.aggregated:
            rendered.append(
                f"{agg.how.upper()}("
                f"{_format_identifier(agg.relation, allow_keyword=True)}."
                f"{_format_identifier(agg.attribute, allow_keyword=True)}) "
                f"AS {_format_identifier(agg.name, allow_keyword=True)}"
            )
        parts.append("WITH " + ", ".join(rendered))
    return " ".join(parts)


def _unparse_update(update: AttributeUpdate) -> str:
    attr = _format_identifier(update.attribute, allow_keyword=True)
    function = update.function
    if isinstance(function, SetTo):
        value = function.value
        if isinstance(value, (bool, np.bool_)):
            rendered = "TRUE" if value else "FALSE"
        elif isinstance(value, str):
            rendered = _format_string(value)
        elif isinstance(value, (int, float, np.integer, np.floating)):
            rendered = _format_number(value)
        else:
            raise UnparseError(f"Update(...) = {value!r} has no query-text form")
        return f"UPDATE({attr}) = {rendered}"
    if isinstance(function, AddConstant):
        return f"UPDATE({attr}) = {_format_number(function.delta)} + PRE({attr})"
    if isinstance(function, MultiplyBy):
        return f"UPDATE({attr}) = {_format_number(function.factor)} * PRE({attr})"
    raise UnparseError(
        f"update function {type(function).__name__} has no query-text form"
    )


def _unparse_aggregate_term(aggregate: str, attribute: str) -> str:
    if aggregate.lower() not in ("avg", "sum", "count"):
        raise UnparseError(f"aggregate {aggregate!r} has no query-text form")
    return (
        f"{aggregate.upper()}(POST({_format_identifier(attribute, allow_keyword=True)}))"
    )


def _unparse_limit(limit: LimitConstraint) -> str:
    attr = _format_identifier(limit.attribute, allow_keyword=True)
    forms = [
        limit.lower is not None or limit.upper is not None,
        limit.allowed_values is not None,
        limit.max_l1 is not None,
    ]
    if sum(forms) != 1:
        raise UnparseError(
            f"Limit on {limit.attribute!r} mixes range/membership/L1 forms "
            "(or is empty); each LIMIT condition expresses exactly one"
        )
    if limit.allowed_values is not None:
        if not limit.allowed_values:
            raise UnparseError("Post(...) IN (...) needs at least one value")
        values = ", ".join(_format_literal(v) for v in limit.allowed_values)
        return f"POST({attr}) IN ({values})"
    if limit.max_l1 is not None:
        return f"L1(PRE({attr}), POST({attr})) <= {_format_number(limit.max_l1)}"
    if limit.lower is not None and limit.upper is not None:
        return (
            f"{_format_number(limit.lower)} <= POST({attr}) "
            f"<= {_format_number(limit.upper)}"
        )
    if limit.lower is not None:
        return f"POST({attr}) >= {_format_number(limit.lower)}"
    return f"POST({attr}) <= {_format_number(limit.upper)}"


def unparse_what_if(query: WhatIfQuery) -> str:
    parts = [_unparse_use(query.use)]
    if not _is_true(query.when):
        parts.append(f"WHEN {unparse_expr(query.when)}")
    parts.append(" AND ".join(_unparse_update(u) for u in query.updates))
    parts.append(
        "OUTPUT "
        + _unparse_aggregate_term(query.output_aggregate, query.output_attribute)
    )
    if not _is_true(query.for_clause):
        parts.append(f"FOR {unparse_expr(query.for_clause)}")
    return " ".join(parts)


def unparse_how_to(query: HowToQuery) -> str:
    for name, default in _HOWTO_DEFAULTS.items():
        if getattr(query, name) != default:
            raise UnparseError(
                f"how-to field {name}={getattr(query, name)!r} has no surface "
                f"syntax (the parser always produces {default!r}); "
                "pass the query object directly instead of round-tripping text"
            )
    parts = [_unparse_use(query.use)]
    if not _is_true(query.when):
        parts.append(f"WHEN {unparse_expr(query.when)}")
    attrs = ", ".join(
        _format_identifier(a, allow_keyword=True) for a in query.update_attributes
    )
    parts.append(f"HOWTOUPDATE {attrs}")
    if query.limits:
        parts.append("LIMIT " + " AND ".join(_unparse_limit(l) for l in query.limits))
    keyword = "TOMAXIMIZE" if query.maximize else "TOMINIMIZE"
    parts.append(
        f"{keyword} "
        + _unparse_aggregate_term(query.objective_aggregate, query.objective_attribute)
    )
    if not _is_true(query.for_clause):
        parts.append(f"FOR {unparse_expr(query.for_clause)}")
    return " ".join(parts)


def unparse(query: WhatIfQuery | HowToQuery) -> str:
    """Canonical query text for ``query``; parses back to an identical AST."""
    if isinstance(query, WhatIfQuery):
        return unparse_what_if(query)
    if isinstance(query, HowToQuery):
        return unparse_how_to(query)
    raise UnparseError(f"cannot unparse object of type {type(query).__name__}")
