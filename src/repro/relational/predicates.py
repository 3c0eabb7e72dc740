"""Predicate manipulation: DNF conversion, disjointness, pre/post splitting.

Section A.2 of the paper computes Count/Sum what-if answers for ``For``
predicates written as a *disjunction of disjoint conjunctions*, each conjunction
separating cleanly into a pre-update part ``mu_For,Pre`` and a post-update part
``mu_For,Post``.  This module provides the machinery to normalise arbitrary
boolean predicate trees into that shape:

* :func:`to_dnf` — rewrite an expression tree into disjunctive normal form.
* :func:`make_disjoint` — apply the inclusion–exclusion style rewriting
  (Section A.2.3) so every pre/post row pair satisfies at most one disjunct.
* :func:`split_pre_post` — split a conjunction into its pre-only and post-only
  conjuncts, flagging atoms that mix both (Section A.2.4 handles those by
  domain enumeration; the engine falls back to sampling when the domain is not
  finite).
* :func:`evaluate_mask` — vectorised evaluation of a predicate over a relation
  (optionally a pre/post pair of relations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..exceptions import ExpressionError
from . import columnar
from .expressions import (
    BooleanExpr,
    Comparison,
    Const,
    EvaluationContext,
    Expr,
    InSet,
    Not,
    Temporal,
)
from .relation import Relation

__all__ = [
    "TRUE",
    "Conjunction",
    "evaluate_predicate",
    "evaluate_mask",
    "to_dnf",
    "make_disjoint",
    "split_pre_post",
    "is_pre_only",
    "is_post_only",
]

#: A predicate that is always true (used when a When/For clause is omitted).
TRUE: Expr = Const(True)


def evaluate_predicate(
    predicate: Expr,
    pre_row: dict,
    post_row: dict | None = None,
) -> bool:
    """Evaluate a boolean predicate for a single (pre, post) row pair."""
    context = EvaluationContext(pre_row, post_row)
    return bool(predicate.evaluate(context))


def evaluate_mask(
    predicate: Expr,
    relation: Relation,
    post_relation: Relation | None = None,
) -> np.ndarray:
    """Evaluate ``predicate`` over ``relation``, returning a boolean row mask.

    ``post_relation`` (aligned row-for-row with ``relation``) supplies
    ``Post(A)`` values; when omitted, post values fall back to pre values.
    The whole predicate is evaluated with the vectorized kernels of
    :mod:`repro.relational.columnar`; it agrees row for row with
    :func:`evaluate_predicate`, except that arithmetic over a missing operand
    (which the per-row evaluator raises on) leaves the mask ``False``.
    """
    if post_relation is not None and len(post_relation) != len(relation):
        raise ExpressionError("pre and post relations must have the same number of rows")
    post_store = post_relation.columnar_store() if post_relation is not None else None
    return columnar.vectorized_mask(predicate, relation.columnar_store(), post_store)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


def _is_atom(expr: Expr) -> bool:
    if isinstance(expr, (Comparison, InSet, Const)):
        return True
    if isinstance(expr, Not):
        return _is_atom(expr.operand)
    return False


def _push_negations(expr: Expr, negate: bool = False) -> Expr:
    """Push ``Not`` down to atoms (negation normal form)."""
    if isinstance(expr, Not):
        return _push_negations(expr.operand, not negate)
    if isinstance(expr, BooleanExpr):
        op = expr.op
        if negate:
            op = "or" if op == "and" else "and"
        return BooleanExpr(op, [_push_negations(o, negate) for o in expr.operands])
    if negate:
        return Not(expr)
    return expr


def to_dnf(expr: Expr, max_terms: int = 4096) -> list[list[Expr]]:
    """Convert a boolean expression to DNF: a list of conjunctions (lists of atoms).

    ``max_terms`` bounds the blow-up of distributing conjunctions over
    disjunctions; exceeding it raises :class:`ExpressionError`.
    """
    expr = _push_negations(expr)

    def recurse(node: Expr) -> list[list[Expr]]:
        if _is_atom(node):
            return [[node]]
        if isinstance(node, BooleanExpr) and node.op == "or":
            terms: list[list[Expr]] = []
            for operand in node.operands:
                terms.extend(recurse(operand))
                if len(terms) > max_terms:
                    raise ExpressionError("DNF conversion exceeded the term budget")
            return terms
        if isinstance(node, BooleanExpr) and node.op == "and":
            product: list[list[Expr]] = [[]]
            for operand in node.operands:
                operand_terms = recurse(operand)
                product = [
                    existing + extra for existing in product for extra in operand_terms
                ]
                if len(product) > max_terms:
                    raise ExpressionError("DNF conversion exceeded the term budget")
            return product
        raise ExpressionError(f"cannot normalise expression node {node!r}")

    return recurse(expr)


def _conjunction_expr(atoms: list[Expr]) -> Expr:
    if not atoms:
        return TRUE
    if len(atoms) == 1:
        return atoms[0]
    return BooleanExpr("and", atoms)


def make_disjoint(disjuncts: list[Expr], max_terms: int = 1024) -> list[Expr]:
    """Rewrite a list of disjuncts so any row pair satisfies at most one of them.

    Uses the standard "first match wins" decomposition, equivalent to the
    inclusion–exclusion rewriting in Section A.2.3 of the paper:
    ``d1, d2 & ~d1, d3 & ~d1 & ~d2, ...``.
    """
    out: list[Expr] = []
    negated_prefix: list[Expr] = []
    for disjunct in disjuncts:
        if negated_prefix:
            out.append(BooleanExpr("and", [*negated_prefix, disjunct]))
        else:
            out.append(disjunct)
        negated_prefix.append(Not(disjunct))
        if len(out) > max_terms:
            raise ExpressionError("disjointness rewriting exceeded the term budget")
    return out


# ---------------------------------------------------------------------------
# Pre / Post splitting of conjunctions
# ---------------------------------------------------------------------------


@dataclass
class Conjunction:
    """A conjunction split into its pre-only, post-only and mixed atoms."""

    pre_atoms: list[Expr] = field(default_factory=list)
    post_atoms: list[Expr] = field(default_factory=list)
    mixed_atoms: list[Expr] = field(default_factory=list)

    @property
    def pre(self) -> Expr:
        """``mu_For,Pre`` — conjunction of atoms over pre values only."""
        return _conjunction_expr(self.pre_atoms)

    @property
    def post(self) -> Expr:
        """``mu_For,Post`` — conjunction of atoms over post values only."""
        return _conjunction_expr(self.post_atoms)

    @property
    def mixed(self) -> Expr:
        """Atoms that mention both pre and post values of attributes."""
        return _conjunction_expr(self.mixed_atoms)

    @property
    def is_separable(self) -> bool:
        return not self.mixed_atoms

    @property
    def post_attributes(self) -> set[str]:
        names: set[str] = set()
        for atom in self.post_atoms + self.mixed_atoms:
            names |= {n for n, t in atom.referenced_attributes() if t is Temporal.POST}
        return names

    def full(self) -> Expr:
        return _conjunction_expr(self.pre_atoms + self.post_atoms + self.mixed_atoms)


def is_pre_only(expr: Expr) -> bool:
    refs = expr.referenced_attributes()
    return all(t in (Temporal.PRE, Temporal.DEFAULT) for _, t in refs)


def is_post_only(expr: Expr) -> bool:
    refs = expr.referenced_attributes()
    return bool(refs) and all(t is Temporal.POST for _, t in refs)


def split_pre_post(atoms: Iterable[Expr]) -> Conjunction:
    """Split conjunction atoms into pre-only, post-only, and mixed groups."""
    split = Conjunction()
    for atom in atoms:
        refs = atom.referenced_attributes()
        if not refs or is_pre_only(atom):
            split.pre_atoms.append(atom)
        elif is_post_only(atom):
            split.post_atoms.append(atom)
        else:
            split.mixed_atoms.append(atom)
    return split
