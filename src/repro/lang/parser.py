"""Recursive-descent parser for the HypeR SQL extension.

The parser produces the programmatic query objects of :mod:`repro.core.queries`
(``WhatIfQuery`` / ``HowToQuery``), so parsed and hand-constructed queries are
interchangeable.  A text is a how-to exactly when it has a ``HOWTOUPDATE`` /
``TOMAXIMIZE`` / ``TOMINIMIZE`` keyword *token* (the word in a string literal
or a comment does not count), and every :class:`QuerySyntaxError` carries the
offending token's position and line.

Grammar (keywords case-insensitive)::

    whatif  := use_clause when? update_clause output_clause for?
    howto   := use_clause when? howtoupdate limit? objective for?

    use_clause  := USE relation
                 | USE relation '(' attr (',' attr)* ')'
                 | USE relation [WITH agg '(' relation '.' attr ')' AS ident (',' ...)*]
    when        := WHEN predicate
    update_clause := UPDATE '(' attr ')' '=' update_expr (AND UPDATE ...)*
    update_expr := literal | number '*' PRE '(' attr ')' | number '+' PRE '(' attr ')'
    output_clause := OUTPUT agg '(' [POST '('] attr [')'] ')'
    howtoupdate := HOWTOUPDATE attr (',' attr)*
    limit       := LIMIT limit_condition (AND limit_condition)*
    objective   := (TOMAXIMIZE | TOMINIMIZE) agg '(' [POST '('] attr [')'] ')'
    for         := FOR predicate
    predicate   := or_expr  -- the usual AND/OR/NOT/comparison/IN grammar over
                            -- PRE(attr), POST(attr), attr, literals
    number      := ['-'] NUMBER  -- numeric literals accept a unary minus

The ``Use`` clause deliberately deviates from the paper's full embedded-SQL
form: instead of an arbitrary SELECT, it takes the base relation, an optional
projection list, and an optional ``WITH agg(Other.Attr) AS name`` list for
aggregated attributes from joined relations.  This covers every query in the
paper's examples and evaluation while keeping the grammar small; the embedded
SQL of Figure 4 maps 1:1 onto this form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from ..core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo
from ..exceptions import QuerySyntaxError
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
from ..relational.view import AggregatedAttribute, UseSpec
from .lexer import Token, TokenType, tokenize
from .template import ShapeMemo

__all__ = ["parse_keyed", "parse_query", "parse_uncached", "parse_what_if", "parse_how_to"]

_AGGREGATES = {"avg", "sum", "count"}


def _error(token: Token, message: str) -> QuerySyntaxError:
    """The syntax error ``message``, placed at ``token`` in the query text."""
    return QuerySyntaxError(message, position=token.position, line=token.line)


@dataclass
class _Cursor:
    tokens: list[Token]
    index: int = 0

    def peek(self, offset: int = 0) -> Token:
        # the index never passes the closing EOF token; only a lookahead clamps
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def check_keyword(self, *keywords: str) -> bool:
        token = self.tokens[self.index]
        return token.type is TokenType.KEYWORD and token.lowered in keywords

    def match_keyword(self, *keywords: str) -> Token | None:
        if self.check_keyword(*keywords):
            return self.advance()
        return None

    def expect_keyword(self, keyword: str) -> Token:
        token = self.advance()
        if token.type is not TokenType.KEYWORD or token.lowered != keyword:
            raise _error(token, f"expected keyword {keyword.upper()!r}, found {token.value!r}")
        return token

    def expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self.advance()
        if token.type is not token_type or (value is not None and token.value != value):
            expected = value or token_type.name
            raise _error(token, f"expected {expected!r}, found {token.value!r}")
        return token

    def expect_identifier(self) -> Token:
        token = self.advance()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise _error(token, f"expected an identifier, found {token.value!r}")
        return token

    @property
    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOF


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


_HOW_TO_KEYWORDS = {"howtoupdate", "tomaximize", "tominimize"}


def parse_query(text: str) -> WhatIfQuery | HowToQuery:
    """Parse either flavour of HypeR query, once per shape of ``text``: a text
    whose shape is cached is bound into its template, structurally identical
    to :func:`parse_uncached` (:mod:`repro.lang.template`)."""
    return _SHAPES.parse(text)


def parse_keyed(text: str, eager: bool = False) -> tuple[WhatIfQuery | HowToQuery, tuple | None]:
    """:func:`parse_query` and the text's key: its shape and every numeric literal
    but a what-if's update constants, ``None`` while the shape has no binder
    (``eager`` compiles it now); texts of one key differ only in those constants."""
    return _SHAPES.parse_keyed(text, eager)


def parse_uncached(text: str) -> WhatIfQuery | HowToQuery:
    """Parse either flavour of HypeR query: a how-to has a how-to keyword token."""
    tokens = tokenize(text)
    for token in tokens:
        if token.type is TokenType.KEYWORD and token.lowered in _HOW_TO_KEYWORDS:
            return _parse_how_to(_Cursor(tokens))
    return _parse_what_if(_Cursor(tokens))


_SHAPES = ShapeMemo(parse_uncached)


def parse_what_if(text: str) -> WhatIfQuery:
    return _parse_what_if(_Cursor(tokenize(text)))


def parse_how_to(text: str) -> HowToQuery:
    return _parse_how_to(_Cursor(tokenize(text)))


def _parse_what_if(cursor: _Cursor) -> WhatIfQuery:
    use = _parse_use(cursor)
    when = _parse_optional_when(cursor)
    updates = _parse_updates(cursor)
    output_attribute, output_aggregate = _parse_output(cursor, "output")
    for_clause = _parse_optional_for(cursor)
    _expect_end(cursor)
    return WhatIfQuery(
        use=use,
        updates=updates,
        output_attribute=output_attribute,
        output_aggregate=output_aggregate,
        when=when,
        for_clause=for_clause,
    )


def _parse_how_to(cursor: _Cursor) -> HowToQuery:
    use = _parse_use(cursor)
    when = _parse_optional_when(cursor)
    cursor.expect_keyword("howtoupdate")
    attributes = [cursor.expect_identifier().value]
    while cursor.peek().type is TokenType.COMMA:
        cursor.advance()
        attributes.append(cursor.expect_identifier().value)
    limits: list[LimitConstraint] = []
    if cursor.match_keyword("limit"):
        limits = _parse_limits(cursor)
    maximize_token = cursor.advance()
    if maximize_token.type is not TokenType.KEYWORD or maximize_token.lowered not in (
        "tomaximize",
        "tominimize",
    ):
        raise _error(
            maximize_token, f"expected TOMAXIMIZE or TOMINIMIZE, found {maximize_token.value!r}"
        )
    objective_attribute, objective_aggregate = _parse_aggregate_term(cursor)
    for_clause = _parse_optional_for(cursor)
    _expect_end(cursor)
    return HowToQuery(
        use=use,
        update_attributes=attributes,
        objective_attribute=objective_attribute,
        objective_aggregate=objective_aggregate,
        maximize=maximize_token.lowered == "tomaximize",
        when=when,
        for_clause=for_clause,
        limits=limits,
    )


def _expect_end(cursor: _Cursor) -> None:
    if not cursor.at_end:
        token = cursor.peek()
        raise _error(token, f"unexpected trailing input starting at {token.value!r}")


# ---------------------------------------------------------------------------
# Clause parsers
# ---------------------------------------------------------------------------


def _at_number(cursor: _Cursor) -> bool:
    """Whether the cursor sits on a numeric literal (with optional unary minus)."""
    token = cursor.peek()
    if token.type is TokenType.NUMBER:
        return True
    return (
        token.type is TokenType.OPERATOR
        and token.value == "-"
        and cursor.peek(1).type is TokenType.NUMBER
    )


def _parse_number(cursor: _Cursor) -> float:
    """A numeric literal with optional unary minus (``-3.5``)."""
    sign = 1.0
    token = cursor.peek()
    if token.type is TokenType.OPERATOR and token.value == "-":
        cursor.advance()
        sign = -1.0
    return sign * float(cursor.expect(TokenType.NUMBER).value)


def _parse_use(cursor: _Cursor) -> UseSpec:
    cursor.expect_keyword("use")
    relation = cursor.expect_identifier().value
    attributes = None
    if cursor.peek().type is TokenType.LPAREN:
        cursor.advance()
        attributes = [cursor.expect_identifier().value]
        while cursor.peek().type is TokenType.COMMA:
            cursor.advance()
            attributes.append(cursor.expect_identifier().value)
        cursor.expect(TokenType.RPAREN)
    aggregated: list[AggregatedAttribute] = []
    if cursor.match_keyword("with"):
        aggregated.append(_parse_aggregated_attribute(cursor))
        while cursor.peek().type is TokenType.COMMA:
            cursor.advance()
            aggregated.append(_parse_aggregated_attribute(cursor))
    return UseSpec(base_relation=relation, attributes=attributes, aggregated=aggregated)


def _parse_aggregated_attribute(cursor: _Cursor) -> AggregatedAttribute:
    agg_token = cursor.advance()
    if agg_token.lowered not in _AGGREGATES:
        raise _error(
            agg_token, f"expected an aggregate (AVG/SUM/COUNT), found {agg_token.value!r}"
        )
    cursor.expect(TokenType.LPAREN)
    relation = cursor.expect_identifier().value
    cursor.expect(TokenType.DOT)
    attribute = cursor.expect_identifier().value
    cursor.expect(TokenType.RPAREN)
    cursor.expect_keyword("as")
    name = cursor.expect_identifier().value
    return AggregatedAttribute(name=name, relation=relation, attribute=attribute, how=agg_token.lowered)


def _parse_optional_when(cursor: _Cursor) -> Expr:
    if cursor.match_keyword("when"):
        return _parse_predicate(cursor)
    return TRUE


def _parse_optional_for(cursor: _Cursor) -> Expr:
    if cursor.match_keyword("for"):
        return _parse_predicate(cursor)
    return TRUE


def _parse_updates(cursor: _Cursor) -> list[AttributeUpdate]:
    updates = [_parse_single_update(cursor)]
    while cursor.check_keyword("and") and cursor.peek(1).lowered == "update":
        cursor.advance()  # AND
        updates.append(_parse_single_update(cursor))
    return updates


def _parse_single_update(cursor: _Cursor) -> AttributeUpdate:
    cursor.expect_keyword("update")
    cursor.expect(TokenType.LPAREN)
    attribute = cursor.expect_identifier().value
    cursor.expect(TokenType.RPAREN)
    cursor.expect(TokenType.OPERATOR, "=")
    return AttributeUpdate(attribute, _parse_update_function(cursor, attribute))


def _parse_update_function(cursor: _Cursor, attribute: str):
    token = cursor.peek()
    if _at_number(cursor):
        value = _parse_number(cursor)
        operator = cursor.peek()
        if operator.type is TokenType.OPERATOR and operator.value in ("*", "+"):
            cursor.advance()
            cursor.expect_keyword("pre")
            cursor.expect(TokenType.LPAREN)
            pre_attr = cursor.expect_identifier()
            cursor.expect(TokenType.RPAREN)
            if pre_attr.value != attribute:
                raise _error(
                    pre_attr,
                    f"Update({attribute}) must reference Pre({attribute}), "
                    f"found Pre({pre_attr.value})",
                )
            return MultiplyBy(value) if operator.value == "*" else AddConstant(value)
        if value.is_integer():
            return SetTo(int(value))
        return SetTo(value)
    if token.type is TokenType.STRING:
        cursor.advance()
        return SetTo(token.value)
    if token.type is TokenType.KEYWORD and token.lowered in ("true", "false"):
        cursor.advance()
        return SetTo(token.lowered == "true")
    raise _error(token, f"unsupported update expression starting at {token.value!r}")


def _parse_output(cursor: _Cursor, keyword: str) -> tuple[str, str]:
    cursor.expect_keyword(keyword)
    return _parse_aggregate_term(cursor)


def _parse_aggregate_term(cursor: _Cursor) -> tuple[str, str]:
    agg_token = cursor.advance()
    if agg_token.lowered not in _AGGREGATES:
        raise _error(
            agg_token, f"expected an aggregate (AVG/SUM/COUNT), found {agg_token.value!r}"
        )
    cursor.expect(TokenType.LPAREN)
    if cursor.match_keyword("post"):
        cursor.expect(TokenType.LPAREN)
        attribute = cursor.expect_identifier().value
        cursor.expect(TokenType.RPAREN)
    else:
        attribute = cursor.expect_identifier().value
    cursor.expect(TokenType.RPAREN)
    return attribute, agg_token.lowered


def _parse_limits(cursor: _Cursor) -> list[LimitConstraint]:
    limits = [_parse_limit_condition(cursor)]
    while cursor.check_keyword("and"):
        cursor.advance()
        limits.append(_parse_limit_condition(cursor))
    return limits


def _parse_limit_condition(cursor: _Cursor) -> LimitConstraint:
    token = cursor.peek()
    # L1(Pre(B), Post(B)) <= value
    if token.type is TokenType.KEYWORD and token.lowered == "l1":
        cursor.advance()
        cursor.expect(TokenType.LPAREN)
        cursor.expect_keyword("pre")
        cursor.expect(TokenType.LPAREN)
        attribute = cursor.expect_identifier().value
        cursor.expect(TokenType.RPAREN)
        cursor.expect(TokenType.COMMA)
        cursor.expect_keyword("post")
        cursor.expect(TokenType.LPAREN)
        post_attr = cursor.expect_identifier()
        cursor.expect(TokenType.RPAREN)
        cursor.expect(TokenType.RPAREN)
        if post_attr.value != attribute:
            raise _error(post_attr, "L1 must compare Pre and Post of the same attribute")
        _expect_upper_bound(cursor, "L1 constraints")
        bound = _parse_number(cursor)
        return LimitConstraint(attribute=attribute, max_l1=bound)
    # number <= POST(B) <= number   |   POST(B) <= number   |   POST(B) IN (...)
    if _at_number(cursor):
        lower = _parse_number(cursor)
        _expect_upper_bound(cursor, "range limits")
        attribute = _parse_post_reference(cursor)
        upper = None
        if cursor.peek().type is TokenType.OPERATOR and cursor.peek().value in ("<=", "<"):
            cursor.advance()
            upper = _parse_number(cursor)
        return LimitConstraint(attribute=attribute, lower=lower, upper=upper)
    attribute = _parse_post_reference(cursor)
    next_token = cursor.peek()
    if next_token.type is TokenType.KEYWORD and next_token.lowered == "in":
        cursor.advance()
        cursor.expect(TokenType.LPAREN)
        values = [_parse_literal(cursor)]
        while cursor.peek().type is TokenType.COMMA:
            cursor.advance()
            values.append(_parse_literal(cursor))
        cursor.expect(TokenType.RPAREN)
        return LimitConstraint(attribute=attribute, allowed_values=tuple(values))
    op = cursor.expect(TokenType.OPERATOR)
    bound = _parse_number(cursor)
    if op.value in ("<=", "<"):
        return LimitConstraint(attribute=attribute, upper=bound)
    if op.value in (">=", ">"):
        return LimitConstraint(attribute=attribute, lower=bound)
    raise _error(op, f"unsupported limit operator {op.value!r}")


def _expect_upper_bound(cursor: _Cursor, what: str) -> None:
    """Consume the ``<=`` (or ``<``) of a ``what`` limit; any other operator is an error."""
    op = cursor.expect(TokenType.OPERATOR)
    if op.value not in ("<=", "<"):
        raise _error(op, f"{what} use '<=', found {op.value!r}")


def _parse_post_reference(cursor: _Cursor) -> str:
    cursor.expect_keyword("post")
    cursor.expect(TokenType.LPAREN)
    attribute = cursor.expect_identifier().value
    cursor.expect(TokenType.RPAREN)
    return attribute


def _parse_literal(cursor: _Cursor):
    if _at_number(cursor):
        value = _parse_number(cursor)
        return int(value) if value.is_integer() else value
    token = cursor.advance()
    if token.type is TokenType.STRING:
        return token.value
    if token.type is TokenType.KEYWORD and token.lowered in ("true", "false"):
        return token.lowered == "true"
    if token.type is TokenType.KEYWORD and token.lowered == "null":
        return None
    raise _error(token, f"expected a literal, found {token.value!r}")


# ---------------------------------------------------------------------------
# Predicate grammar
# ---------------------------------------------------------------------------

_CLAUSE_KEYWORDS = {
    "update",
    "output",
    "for",
    "howtoupdate",
    "limit",
    "tomaximize",
    "tominimize",
}


def _parse_predicate(cursor: _Cursor) -> Expr:
    return _parse_or(cursor)


def _parse_or(cursor: _Cursor) -> Expr:
    left = _parse_and(cursor)
    operands = [left]
    while cursor.check_keyword("or"):
        cursor.advance()
        operands.append(_parse_and(cursor))
    if len(operands) == 1:
        return left
    return BooleanExpr("or", operands)


def _parse_and(cursor: _Cursor) -> Expr:
    left = _parse_not(cursor)
    operands = [left]
    while cursor.check_keyword("and") and cursor.peek(1).lowered not in _CLAUSE_KEYWORDS:
        cursor.advance()
        operands.append(_parse_not(cursor))
    if len(operands) == 1:
        return left
    return BooleanExpr("and", operands)


def _parse_not(cursor: _Cursor) -> Expr:
    if cursor.match_keyword("not"):
        return Not(_parse_not(cursor))
    return _parse_comparison(cursor)


def _parse_comparison(cursor: _Cursor) -> Expr:
    if cursor.peek().type is TokenType.LPAREN:
        cursor.advance()
        inner = _parse_predicate(cursor)
        cursor.expect(TokenType.RPAREN)
        return inner
    left = _parse_operand(cursor)
    token = cursor.peek()
    if token.type is TokenType.KEYWORD and token.lowered == "in":
        cursor.advance()
        cursor.expect(TokenType.LPAREN)
        values = [_parse_literal(cursor)]
        while cursor.peek().type is TokenType.COMMA:
            cursor.advance()
            values.append(_parse_literal(cursor))
        cursor.expect(TokenType.RPAREN)
        return InSet(left, values)
    if token.type is not TokenType.OPERATOR:
        raise _error(token, f"expected a comparison operator, found {token.value!r}")
    op = cursor.advance().value
    op = {"=": "==", "<>": "!="}.get(op, op)
    right = _parse_operand(cursor)
    return Comparison(left, op, right)


def _parse_operand(cursor: _Cursor) -> Expr:
    token = cursor.peek()
    if _at_number(cursor):
        value = _parse_number(cursor)
        return Const(int(value) if value.is_integer() else value)
    if token.type is TokenType.KEYWORD and token.lowered in ("pre", "post"):
        cursor.advance()
        cursor.expect(TokenType.LPAREN)
        attribute = cursor.expect_identifier().value
        cursor.expect(TokenType.RPAREN)
        temporal = Temporal.PRE if token.lowered == "pre" else Temporal.POST
        return Attr(attribute, temporal)
    if token.type is TokenType.IDENTIFIER:
        cursor.advance()
        return Attr(token.value, Temporal.DEFAULT)
    if token.type is TokenType.STRING:
        cursor.advance()
        return Const(token.value)
    if token.type is TokenType.KEYWORD and token.lowered in ("true", "false"):
        cursor.advance()
        return Const(token.lowered == "true")
    if token.type is TokenType.KEYWORD and token.lowered == "null":
        cursor.advance()
        return Const(None)
    raise _error(token, f"unexpected token {token.value!r} in predicate")
