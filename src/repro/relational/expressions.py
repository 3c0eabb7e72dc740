"""Expression trees for HypeR predicates and arithmetic.

The ``When`` / ``For`` / ``Limit`` clauses of HypeR queries are predicates over
attribute values that may refer to the *pre-update* value of an attribute
(``Pre(A)``, the value in the observed database) or the *post-update* value
(``Post(A)``, the value in a possible world after the hypothetical update).
Expression nodes therefore carry a temporal marker and are evaluated against an
:class:`EvaluationContext` that exposes both row versions.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

from ..exceptions import ExpressionError

__all__ = [
    "Temporal",
    "EvaluationContext",
    "Expr",
    "LITERAL_SLOT",
    "Const",
    "Attr",
    "Arithmetic",
    "Comparison",
    "BooleanExpr",
    "Not",
    "InSet",
    "col",
    "pre",
    "post",
    "lit",
]


class Temporal(Enum):
    """Which version of an attribute value an :class:`Attr` node refers to."""

    PRE = "pre"
    POST = "post"
    # DEFAULT behaves as PRE except in the Output/ToMaximize clauses where the
    # engine rewrites it to POST (the paper: "Pre is assumed by default").
    DEFAULT = "default"


class EvaluationContext:
    """Row-level evaluation environment with pre- and post-update values.

    ``pre_row`` is the tuple as it appears in the observed database ``D``;
    ``post_row`` is the tuple in the possible world being evaluated.  When no
    post row is supplied, ``Post(A)`` falls back to the pre value (immutable
    attributes and unaffected tuples behave exactly like this in the paper).
    """

    __slots__ = ("pre_row", "post_row", "default_temporal")

    def __init__(
        self,
        pre_row: Mapping[str, Any],
        post_row: Mapping[str, Any] | None = None,
        default_temporal: Temporal = Temporal.PRE,
    ) -> None:
        self.pre_row = pre_row
        self.post_row = post_row if post_row is not None else pre_row
        self.default_temporal = default_temporal

    def value(self, attribute: str, temporal: Temporal) -> Any:
        if temporal is Temporal.DEFAULT:
            temporal = self.default_temporal
        row = self.pre_row if temporal is Temporal.PRE else self.post_row
        if attribute not in row:
            raise ExpressionError(
                f"attribute {attribute!r} is not available in the evaluation context; "
                f"available: {sorted(row)}"
            )
        return row[attribute]


#: Placeholder substituted for literal values in structural canonical keys.
LITERAL_SLOT = "?"


def _key_value(value: Any) -> Any:
    """A hashable, equality-comparable stand-in for a literal constant."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_key_value(v) for v in value)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class Expr:
    """Base class of all expression nodes.

    Each node defines ``evaluate(context)``; ``referenced_attributes()``, the
    ``(attribute, temporal)`` pairs referenced anywhere in its tree; and
    ``canonical(literals=True)``, the tree's stable, hashable identity.  That
    identity is nested tuples of plain values (never ``Expr`` objects, whose
    ``__eq__`` is overloaded to build comparisons), so it can key a dict.
    With ``literals=False`` every constant is replaced by
    :data:`LITERAL_SLOT`, yielding the *structural* identity used by plan
    fingerprinting: two predicates that differ only in their literal values
    share the same structural key.
    """

    def attribute_names(self) -> set[str]:
        return {name for name, _ in self.referenced_attributes()}

    def uses_post(self) -> bool:
        return any(t is Temporal.POST for _, t in self.referenced_attributes())

    # -- operator sugar (builds comparison / boolean / arithmetic trees) ----------

    def _binary(self, other: Any, op: str) -> "Comparison":
        return Comparison(self, op, _wrap(other))

    def __eq__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return self._binary(other, "==")

    def __ne__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return self._binary(other, "!=")

    def __lt__(self, other: Any) -> "Comparison":
        return self._binary(other, "<")

    def __le__(self, other: Any) -> "Comparison":
        return self._binary(other, "<=")

    def __gt__(self, other: Any) -> "Comparison":
        return self._binary(other, ">")

    def __ge__(self, other: Any) -> "Comparison":
        return self._binary(other, ">=")

    def __add__(self, other: Any) -> "Arithmetic":
        return Arithmetic(self, "+", _wrap(other))

    def __radd__(self, other: Any) -> "Arithmetic":
        return Arithmetic(_wrap(other), "+", self)

    def __sub__(self, other: Any) -> "Arithmetic":
        return Arithmetic(self, "-", _wrap(other))

    def __rsub__(self, other: Any) -> "Arithmetic":
        return Arithmetic(_wrap(other), "-", self)

    def __mul__(self, other: Any) -> "Arithmetic":
        return Arithmetic(self, "*", _wrap(other))

    def __rmul__(self, other: Any) -> "Arithmetic":
        return Arithmetic(_wrap(other), "*", self)

    def __truediv__(self, other: Any) -> "Arithmetic":
        return Arithmetic(self, "/", _wrap(other))

    def __and__(self, other: "Expr") -> "BooleanExpr":
        return BooleanExpr("and", [self, _wrap(other)])

    def __or__(self, other: "Expr") -> "BooleanExpr":
        return BooleanExpr("or", [self, _wrap(other)])

    def __invert__(self) -> "Not":
        return Not(self)

    def isin(self, values: Iterable[Any]) -> "InSet":
        return InSet(self, values)

    def __hash__(self) -> int:
        return hash(repr(self))


def _wrap(value: Any) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(value)


class Const(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, context: EvaluationContext) -> Any:
        return self.value

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return set()

    def canonical(self, literals: bool = True) -> tuple:
        return ("const", _key_value(self.value) if literals else LITERAL_SLOT)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Attr(Expr):
    """Reference to an attribute value, with a temporal marker."""

    def __init__(self, name: str, temporal: Temporal = Temporal.DEFAULT) -> None:
        if not name:
            raise ExpressionError("attribute reference needs a name")
        self.name = name
        self.temporal = temporal

    def evaluate(self, context: EvaluationContext) -> Any:
        return context.value(self.name, self.temporal)

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return {(self.name, self.temporal)}

    def canonical(self, literals: bool = True) -> tuple:
        return ("attr", self.name, self.temporal.value)

    def __repr__(self) -> str:
        marker = {Temporal.PRE: "Pre", Temporal.POST: "Post", Temporal.DEFAULT: ""}[self.temporal]
        return f"{marker}({self.name})" if marker else self.name


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Arithmetic(Expr):
    """Binary arithmetic over two sub-expressions."""

    def __init__(self, left: Expr, op: str, right: Expr) -> None:
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, context: EvaluationContext) -> Any:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        try:
            return _ARITH_OPS[self.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot apply {self.op!r} to {left!r} and {right!r}"
            ) from exc

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return self.left.referenced_attributes() | self.right.referenced_attributes()

    def canonical(self, literals: bool = True) -> tuple:
        return ("arith", self.op, self.left.canonical(literals), self.right.canonical(literals))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expr):
    """Binary comparison producing a boolean."""

    def __init__(self, left: Expr, op: str, right: Expr) -> None:
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, context: EvaluationContext) -> bool:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if left is None or right is None:
            return False
        try:
            return bool(_CMP_OPS[self.op](left, right))
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return self.left.referenced_attributes() | self.right.referenced_attributes()

    def canonical(self, literals: bool = True) -> tuple:
        return ("cmp", self.op, self.left.canonical(literals), self.right.canonical(literals))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanExpr(Expr):
    """N-ary conjunction or disjunction."""

    def __init__(self, op: str, operands: Iterable[Expr]) -> None:
        if op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {op!r}")
        self.op = op
        self.operands = [_wrap(o) for o in operands]
        if not self.operands:
            raise ExpressionError("boolean expression needs at least one operand")

    def evaluate(self, context: EvaluationContext) -> bool:
        results = (bool(o.evaluate(context)) for o in self.operands)
        return all(results) if self.op == "and" else any(results)

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        out: set[tuple[str, Temporal]] = set()
        for o in self.operands:
            out |= o.referenced_attributes()
        return out

    def canonical(self, literals: bool = True) -> tuple:
        return ("bool", self.op, tuple(o.canonical(literals) for o in self.operands))

    def __repr__(self) -> str:
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class Not(Expr):
    """Logical negation."""

    def __init__(self, operand: Expr) -> None:
        self.operand = _wrap(operand)

    def evaluate(self, context: EvaluationContext) -> bool:
        return not bool(self.operand.evaluate(context))

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return self.operand.referenced_attributes()

    def canonical(self, literals: bool = True) -> tuple:
        return ("not", self.operand.canonical(literals))

    def __repr__(self) -> str:
        return f"not {self.operand!r}"


class InSet(Expr):
    """Membership test ``expr IN (v1, v2, ...)``."""

    def __init__(self, operand: Expr, values: Iterable[Any]) -> None:
        self.operand = _wrap(operand)
        self.values = tuple(values)

    def evaluate(self, context: EvaluationContext) -> bool:
        return self.operand.evaluate(context) in self.values

    def referenced_attributes(self) -> set[tuple[str, Temporal]]:
        return self.operand.referenced_attributes()

    def canonical(self, literals: bool = True) -> tuple:
        values = _key_value(self.values) if literals else LITERAL_SLOT
        return ("in", self.operand.canonical(literals), values)

    def __repr__(self) -> str:
        return f"({self.operand!r} in {self.values!r})"


# -- convenience constructors mirroring the paper's surface syntax ------------------


def col(name: str) -> Attr:
    """Unqualified attribute reference (defaults to the pre-update value)."""
    return Attr(name, Temporal.DEFAULT)


def pre(name: str) -> Attr:
    """``Pre(name)`` — the value in the observed database."""
    return Attr(name, Temporal.PRE)


def post(name: str) -> Attr:
    """``Post(name)`` — the value after the hypothetical update."""
    return Attr(name, Temporal.POST)


def lit(value: Any) -> Const:
    """Literal constant."""
    return Const(value)
