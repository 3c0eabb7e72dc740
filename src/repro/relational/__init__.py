"""Relational substrate (paper §2.1, §3.1): the storage and query-processing
layer HypeR runs on, a self-contained column store in place of the original
implementation's dataframe library, with exactly the operations the paper's
``Use`` operator and estimators need: typed domains, keys and mutability
flags, selection/projection/join/group-by, Pre/Post-aware predicate
expressions, and decomposable aggregates.

Semantics
=========

Every :class:`Relation` stores typed ``float64``/``object`` ndarray columns
with explicit null masks (:mod:`repro.relational.columnar`); predicates,
joins, group-bys and aggregates run as whole-column NumPy kernels.  The
per-row evaluator (:func:`evaluate_predicate` over an
:class:`EvaluationContext`) is the reference for predicate semantics; the
kernels' contract is pinned by ``tests/relational/test_relational_contract.py``:

* **Missing values.**  ``None`` is the missing value.  Comparisons
  (``== != < <= > >=``) involving a missing operand are ``False``; ``IN``
  membership of a missing value is ``True`` only when the value set contains
  ``None``; ``Not`` negates the (null-coerced) boolean, so ``NOT (A == 1)``
  is ``True`` for a missing ``A``.
* **Aggregates.**  ``sum``/``count``/``avg`` ignore missing values; the empty
  aggregate is ``0.0``.  The per-base-row ``Use`` aggregation yields ``None``
  for base tuples with no (non-null) matching rows.
* **Ordering.**  ``group_by`` emits one row per group in order of first
  occurrence; ``equi_join`` emits left rows in order, each left row's right
  matches in ascending right-row order; a left join pads unmatched right
  attributes with ``None``.
* **Numeric equality.**  Join keys and group keys compare with Python
  semantics (``2 == 2.0``); key values may be missing and then match only
  other missing values.
* **Known divergence.**  Arithmetic over a missing operand raises
  :class:`~repro.exceptions.ExpressionError` in the per-row evaluator (it
  cannot evaluate the row) while the kernels propagate the null, which then
  fails any enclosing comparison.  Queries should treat arithmetic over
  nullable attributes as undefined.
"""

from .aggregates import (
    AGGREGATES,
    AggregateFunction,
    AvgAggregate,
    CountAggregate,
    SumAggregate,
    get_aggregate,
)
from .columnar import Column, ColumnStore
from .database import Database
from .expressions import (
    Arithmetic,
    Attr,
    BooleanExpr,
    Comparison,
    Const,
    EvaluationContext,
    Expr,
    InSet,
    Not,
    Temporal,
    col,
    lit,
    post,
    pre,
)
from .operators import equi_join, group_by, project, select
from .predicates import (
    TRUE,
    Conjunction,
    evaluate_mask,
    evaluate_predicate,
    make_disjoint,
    split_pre_post,
    to_dnf,
)
from .relation import Relation
from .schema import AttributeSpec, DatabaseSchema, ForeignKey, RelationSchema
from .types import (
    AttributeKind,
    BooleanDomain,
    CategoricalDomain,
    Domain,
    IntegerDomain,
    NumericDomain,
    infer_domain,
)
from .view import AggregatedAttribute, UseSpec
from .csvio import read_csv, read_database, write_csv, write_database

__all__ = [
    "AGGREGATES",
    "AggregateFunction",
    "AggregatedAttribute",
    "Arithmetic",
    "Attr",
    "AttributeKind",
    "AttributeSpec",
    "AvgAggregate",
    "BooleanDomain",
    "BooleanExpr",
    "CategoricalDomain",
    "Column",
    "ColumnStore",
    "Comparison",
    "Conjunction",
    "Const",
    "CountAggregate",
    "Database",
    "DatabaseSchema",
    "Domain",
    "EvaluationContext",
    "Expr",
    "ForeignKey",
    "InSet",
    "IntegerDomain",
    "Not",
    "NumericDomain",
    "Relation",
    "RelationSchema",
    "SumAggregate",
    "Temporal",
    "TRUE",
    "UseSpec",
    "col",
    "equi_join",
    "evaluate_mask",
    "evaluate_predicate",
    "get_aggregate",
    "group_by",
    "infer_domain",
    "lit",
    "make_disjoint",
    "post",
    "pre",
    "project",
    "read_csv",
    "read_database",
    "select",
    "split_pre_post",
    "to_dnf",
    "write_csv",
    "write_database",
]
