"""What-if query evaluation (Sections 3.2 / 3.3 and Appendix A).

The :class:`WhatIfEngine` computes the expected value of the output aggregate
over the post-update distribution without ever enumerating possible worlds:

1. the ``Use`` clause materialises the relevant view (one row per base tuple);
2. the ``When`` clause selects the update scope ``S``;
3. the ``For`` clause is normalised into disjoint disjuncts of pre / post
   conditions; each tuple's probability of qualifying (and expected
   contribution) after the update is obtained from the
   :class:`~repro.core.estimator.PostUpdateEstimator`'s backdoor-adjusted
   regression (Propositions 2 and 5), with inclusion–exclusion across
   disjuncts (Section A.2.3);
4. contributions are combined per block of the block-independent decomposition
   and summed (Proposition 1); AVG is evaluated as the ratio of the expected
   SUM and the expected qualifying COUNT.

The Indep baseline (provenance-style, no causal propagation) is also
implemented here because it shares the view / scope machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Any, Hashable, Sequence

import numpy as np

from ..causal.dag import CausalDAG
from ..exceptions import QuerySemanticsError
from ..ml.encoding import ColumnEncoder
from ..probdb.blocks import block_labels
from ..relational.aggregates import get_aggregate
from ..relational.columnar import KernelCache
from ..relational.database import Database
from ..relational.expressions import Expr
from ..relational.predicates import (
    Conjunction,
    evaluate_mask,
    split_pre_post,
    to_dnf,
)
from ..relational.relation import Relation
from .config import EngineConfig, Variant
from .estimator import PostUpdateEstimator, build_view_dag
from .queries import HowToQuery, WhatIfQuery
from .results import LazyBlockContributions, WhatIfResult
from .updates import AttributeUpdate, UpdateFunction, apply_update_column

__all__ = [
    "Contributions",
    "PreparedWhatIf",
    "WhatIfEngine",
    "causal_contribution_rows",
    "combine_aggregate",
    "encode_post",
    "block_contribution_summary",
    "validate_query",
    "finalize_what_if",
    "indep_contribution_rows",
    "normalise_for_clause",
    "numeric_output_column",
    "outcome_attributes",
    "regressor_cache_key",
    "term_rows",
    "when_scope",
]

_MAX_DISJUNCTS = 6


def regressor_cache_key(
    kind: str,
    subset: tuple[int, ...],
    for_key: Hashable,
    output_attribute: str | None = None,
) -> Hashable:
    """Structured key identifying one regressor training target.

    ``kind`` is ``"count"`` or ``"sum"``, ``subset`` the disjunct subset of the
    inclusion–exclusion term, ``for_key`` the canonical identity (literals
    included) of the ``For`` clause whose post-parts define the indicator, and
    ``output_attribute`` the attribute whose values scale a ``"sum"`` target.
    Unlike the former ``f"count:{subset}"`` strings, these keys cannot alias
    across target kinds or across queries sharing one estimator through the
    service-layer cache.
    """
    return (kind, output_attribute, for_key, subset)


def numeric_output_column(view: Relation, attribute: str) -> np.ndarray:
    """Output attribute as float64 with nulls as 0.0 (shared engine helper).

    A numeric column is a mask/where over its typed data; any other column
    converts value by value (and raises for non-numeric data).
    """
    column = view.columnar_store()[attribute]
    if column.is_numeric:
        return np.where(column.null, 0.0, column.data)
    values = view.column_view(attribute)
    out = np.zeros(len(view))
    for i, value in enumerate(values):
        out[i] = 0.0 if value is None else float(value)
    return out


# -- query validation ----------------------------------------------------------------
#
# One set of checks for both query kinds: a how-to query is a search over
# candidate what-if queries (Definition 7), so whatever makes a what-if
# ill-formed makes every candidate of the how-to ill-formed, with the same
# message.  A :class:`HowToQuery` reads here through its ``output_attribute``
# alias.


def validate_query(
    query: WhatIfQuery | HowToQuery, view: Relation, view_dag: CausalDAG | None
) -> list[Conjunction]:
    """Reject a query the engines cannot answer; its ``For`` disjuncts otherwise.

    The one validator of both engines, both shard paths and the service:
    schema-level and cheap, so callers that cache estimators run it before
    they build one and a rejected query leaves nothing behind.
    """
    referenced = set(query.update_attributes) | {query.output_attribute}
    referenced |= query.when.attribute_names() | query.for_clause.attribute_names()
    missing = sorted(a for a in referenced if a not in view.schema)
    if missing:
        raise QuerySemanticsError(
            f"attributes {missing} are not columns of the relevant view "
            f"(columns: {list(view.attribute_names)})"
        )
    for attribute in query.update_attributes:
        if not view.schema.is_mutable(attribute):
            raise QuerySemanticsError(f"cannot update immutable attribute {attribute!r}")
    # Attributes updated together must be causally unrelated (Sections 3.1,
    # 4.1); a how-to budget of one update never updates two at once.
    one_at_a_time = isinstance(query, HowToQuery) and query.max_updates == 1
    if view_dag is not None and not one_at_a_time:
        for a, b in combinations(query.update_attributes, 2):
            if a not in view_dag or b not in view_dag:
                continue
            if b in view_dag.descendants(a) or a in view_dag.descendants(b):
                raise QuerySemanticsError(
                    f"updated attributes {a!r} and {b!r} are causally connected; "
                    "multi-attribute updates require independent attributes"
                )
    return normalise_for_clause(query.for_clause)


def normalise_for_clause(for_clause: Expr) -> list[Conjunction]:
    """The ``For`` clause as disjuncts of separable pre / post conditions."""
    disjuncts = [split_pre_post(atoms) for atoms in to_dnf(for_clause)]
    if len(disjuncts) > _MAX_DISJUNCTS:
        raise QuerySemanticsError(
            f"the For clause expands to {len(disjuncts)} disjuncts; "
            f"at most {_MAX_DISJUNCTS} are supported"
        )
    for disjunct in disjuncts:
        if not disjunct.is_separable:
            raise QuerySemanticsError(
                "For conditions mixing Pre and Post values of attributes in a single "
                "comparison are not supported by the closed-form estimator; "
                "rewrite them as separate Pre / Post conditions"
            )
    return disjuncts


def outcome_attributes(
    query: WhatIfQuery | HowToQuery, disjuncts: Sequence[Conjunction]
) -> list[str]:
    """The attributes whose post-update values ``query`` reads (estimator outcomes)."""
    return sorted(
        {query.output_attribute} | {a for d in disjuncts for a in d.post_attributes}
    )


@dataclass
class PreparedWhatIf:
    """Everything derived from a what-if query before estimation starts.

    Built by :meth:`WhatIfEngine.prepare` and reusable: the service layer
    prepares once per plan and evaluates many parameter variants against the
    same derived state; nothing in it depends on the update constants.
    """

    view: Relation
    view_dag: CausalDAG | None
    scope_mask: np.ndarray
    disjuncts: list[Conjunction]
    post_attributes: list[str]
    block_of_row: np.ndarray
    n_blocks: int
    for_key: Hashable = None
    # Masks / index sets / partial predictions shared by the parameter
    # variants of one plan (injected by the service layer) or by the
    # candidates of one how-to; ``None`` on the
    # cold what-if path, which builds each piece per query.
    kernels: KernelCache | None = None
    #: the view columns the ``When`` and the ``For`` clause read (kernel keys)
    when_reads: tuple[str, ...] = ()
    for_reads: tuple[str, ...] = ()

    @cached_property
    def term_reads(self) -> tuple[str, ...]:
        """The view columns a term's rows are chosen by: ``When``'s and ``For``'s."""
        return tuple(sorted({*self.when_reads, *self.for_reads}))


# -- pure evaluation phases ----------------------------------------------------------
#
# The functions below are the pure core of what-if evaluation: they close
# over no engine state and take picklable inputs.  Per-row predictions are
# row-stable and regressors are always fitted on full-view training targets,
# so the same :func:`causal_contribution_rows`, run over a shard's local view
# (:mod:`repro.shard.local`), computes for the shard's rows the same per-row
# contributions bit for bit; the shard merge splits them at the full plan's
# term rows and finishes with :func:`finalize_what_if`, the same reduction the
# unsharded path runs.


def _subset_index_list(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def _derive(kernels: KernelCache | None, key: Hashable, build: Any, reads: Sequence = ()) -> Any:
    # Per-plan memo: every parameter variant of one plan shares the same arrays,
    # so build each once per plan (per query when cold) from its view ``reads``.
    return build() if kernels is None else kernels.get(key, build, reads)


def clause_reads(clause: Expr) -> tuple[str, ...]:
    """The view columns ``clause`` reads, sorted."""
    return tuple(sorted({name for name, _ in clause.referenced_attributes()}))


def when_scope(
    query: WhatIfQuery | HowToQuery, view: Relation, kernels: KernelCache | None = None
) -> np.ndarray:
    """The ``When`` scope mask over ``view`` (once per plan with ``kernels``)."""
    return _derive(
        kernels,
        ("scope_mask", query.when.canonical()),
        lambda: evaluate_mask(query.when, view),
        clause_reads(query.when),
    )


@dataclass(frozen=True)
class Contributions:
    """A what-if's expected per-row contributions, in two parts (Proposition 1).

    Only the tuples of an inclusion–exclusion term depend on the update
    (Section A.2.3): ``rows`` (ascending) are those tuples, ``count_at`` /
    ``sum_at`` their contributions.  Every other tuple contributes its
    observed value, held over the whole view by the bases, which are ``+0.0``
    at every row of ``rows``; ``count_total`` / ``sum_total`` are the bases'
    sums, so an expected count or sum is the base total plus the sum at
    ``rows`` — the one rule every path reduces by.  The bases may be
    read-only plan arrays; the ``sum`` side is ``None`` when the aggregate
    reads no output values.
    """

    count_base: np.ndarray
    sum_base: np.ndarray | None
    count_total: float
    sum_total: float
    rows: np.ndarray
    count_at: np.ndarray
    sum_at: np.ndarray | None

    @classmethod
    def from_per_row(
        cls, count: np.ndarray, sum_: np.ndarray | None, rows: np.ndarray
    ) -> Contributions:
        """Split whole per-row arrays (taken over, not copied) at ``rows``."""
        count_base, count_at = _split_at(count, rows)
        sum_base = sum_at = None
        if sum_ is not None:
            sum_base, sum_at = _split_at(sum_, rows)
        return cls(
            count_base=count_base,
            sum_base=sum_base,
            count_total=float(count_base.sum()),
            sum_total=0.0 if sum_base is None else float(sum_base.sum()),
            rows=rows,
            count_at=count_at,
            sum_at=sum_at,
        )

    def expected_count(self) -> float:
        return self.count_total + float(self.count_at.sum())

    def expected_sum(self) -> float:
        return self.sum_total + float(self.sum_at.sum())

    def per_row(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The whole per-row ``(count, sum)`` arrays, rebuilt."""
        count = _fill_at(self.count_base, self.rows, self.count_at)
        if self.sum_base is None:
            return count, None
        return count, _fill_at(self.sum_base, self.rows, self.sum_at)


def _split_at(per_row: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    at = per_row[rows]
    per_row[rows] = 0.0
    return per_row, at


def _fill_at(base: np.ndarray, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    if not len(rows):
        return base
    out = base.copy()
    out[rows] = at
    return out


def _term_index(
    prepared: PreparedWhatIf,
    when_key: Hashable,
    pre_masks: list[np.ndarray],
    subset: tuple[int, ...],
) -> np.ndarray:
    """The rows of one inclusion–exclusion term: in scope, every pre-part of ``subset`` holds."""

    def build() -> np.ndarray:
        applicable = prepared.scope_mask.copy()
        for k in subset:
            applicable &= pre_masks[k]
        return np.flatnonzero(applicable)

    key = ("idx", when_key, prepared.for_key, subset)
    return _derive(prepared.kernels, key, build, prepared.term_reads)


def _term_rows(
    prepared: PreparedWhatIf, when_key: Hashable, pre_masks: list[np.ndarray]
) -> np.ndarray:
    """The union of the terms' rows (with one disjunct, the one term's)."""
    if len(pre_masks) == 1:
        return _term_index(prepared, when_key, pre_masks, (0,))

    def build() -> np.ndarray:
        applicable = pre_masks[0] | pre_masks[1]
        for pre_mask in pre_masks[2:]:
            applicable |= pre_mask
        applicable &= prepared.scope_mask
        return np.flatnonzero(applicable)

    key = ("term_rows", when_key, prepared.for_key)
    return _derive(prepared.kernels, key, build, prepared.term_reads)


def _pre_masks(prepared: PreparedWhatIf) -> list[np.ndarray]:
    # Pre-part satisfaction per disjunct (deterministic, observed values).
    return [
        _derive(
            prepared.kernels,
            ("pre_mask", i, prepared.for_key),
            lambda d=d: evaluate_mask(d.pre, prepared.view),
            prepared.for_reads,
        )
        for i, d in enumerate(prepared.disjuncts)
    ]


def term_rows(query: WhatIfQuery | HowToQuery, prepared: PreparedWhatIf) -> np.ndarray:
    """The rows ``causal_contribution_rows`` puts terms in, over ``prepared.view``."""
    return _term_rows(prepared, query.when.canonical(), _pre_masks(prepared))


def encode_post(
    encoder: ColumnEncoder, pre: np.ndarray, functions: Sequence[UpdateFunction | None]
) -> np.ndarray:
    """k variants' post values of one update attribute, ``f(pre)`` (no function: a
    how-to's baseline, ``pre``), encoded as the regressors read them: one
    ``(k, len(pre), width)`` block, each variant's slice as it encodes alone.

    A numeric encoder over float ``pre`` takes each vectorized ``f(pre)`` straight
    into its slice (:meth:`~repro.core.updates.UpdateFunction.apply_vectorized`'s
    ``out``) and fills the block's NaN with its mean once, where a lone variant
    is filled alike; a one-hot encoder, or a function with no vectorized form,
    encodes its variant's values on their own.
    """
    block = np.empty((len(functions), len(pre), encoder.width))
    direct = encoder.numeric and isinstance(pre, np.ndarray) and pre.dtype.kind == "f"
    for out, function in zip(block, functions):
        if direct and function is None:
            np.copyto(out[:, 0], pre)
        elif not direct or function.apply_vectorized(pre, out=out[:, 0]) is None:
            post = pre if function is None else apply_update_column(function, pre)
            encoder.transform_into(post, out)
    if direct and np.isnan(block.min()):
        block[np.isnan(block)] = encoder.fill_value
    return block


def causal_contribution_rows(
    query: WhatIfQuery | HowToQuery,
    prepared: PreparedWhatIf,
    estimator: PostUpdateEstimator,
    update_sets: Sequence[Sequence[AttributeUpdate]] | None = None,
    *,
    fit_view: Relation | None = None,
) -> list[Contributions]:
    """The :class:`Contributions` of causal variants over ``prepared.view``, one per update set.

    The ``sum`` side is populated only when the query's aggregate needs
    output values.

    This is the one inclusion–exclusion kernel (Section A.2.3).  Each of the
    k ``update_sets`` is one variant's update functions, applied in the scope:
    ``None`` means the query's own (k = 1); a batch passes a plan group's
    what-ifs, a how-to its baseline (no update) and every candidate's
    (Definition 7: a candidate *is* a what-if query).  A shard runs it at its
    rows of a what-if (``prepared.view`` the local view, ``fit_view`` the
    full one).

    Only ``B``'s values at the tuples in scope depend on the update
    constants (Proposition 1), so no whole post column is built: each term
    applies every variant's ``f`` to ``B``'s pre values at its rows ``idx``
    (all in scope), predicts each regressor once over the encoded
    ``(k, |idx|)`` block — row-stable, so each variant's row is bitwise what
    it predicts alone — and adds each row at the term's positions among the
    term rows.  A term whose regressor is constant
    (:attr:`~repro.ml.density.ConditionalMeanRegressor.constant`) reads no post
    value, so nothing is encoded or predicted for it: it adds its one number
    (clipped for a count) to every variant, into one row they share when it
    is the plan's only term.  Everything else — masks, the output column (built
    only when a sum side or a sum target reads it), the
    unaffected-row bases and their sums, the term rows, each term's ``idx``,
    its positions and ``pre[idx]`` and, inside
    :meth:`PostUpdateEstimator.predict_rows`, what the backdoor attributes
    contribute to each regressor's prediction there — comes from
    ``prepared.kernels``; with ``kernels=None`` (the cold engine) the same
    code builds each piece per call.

    ``fit_view`` is the view regressors train on when ``prepared.view`` is a
    row subset of it (a shard's local view); training targets are built only
    on a regressor-cache miss.
    """
    aggregate = get_aggregate(query.output_aggregate)
    view = prepared.view
    n = len(view)
    scope = prepared.scope_mask
    kernels = prepared.kernels
    for_key = prepared.for_key
    when_key = query.when.canonical()
    reads, for_reads = prepared.term_reads, prepared.for_reads
    if update_sets is None:
        update_sets = [query.updates]
    variants = [{u.attribute: u.function for u in updates} for updates in update_sets]
    k = len(variants)

    def encoded_post(idx: np.ndarray, idx_token: Hashable) -> dict[str, np.ndarray]:
        # every variant's post values at a term's rows, every one in scope
        blocks = {}
        for attribute in estimator.update_attributes:
            column = view.column_view(attribute)
            pre = column if len(idx) == n else _derive(
                kernels, ("pre", attribute, idx_token), lambda: column[idx], (attribute, *reads)
            )
            blocks[attribute] = encode_post(
                estimator.encoder(attribute), pre, [f.get(attribute) for f in variants]
            )
        return blocks

    @cache
    def output_values(of: Relation) -> np.ndarray:
        # built only when a sum side or a sum target reads it
        attribute = query.output_attribute
        if of is not view:
            return numeric_output_column(of, attribute)
        build = partial(numeric_output_column, view, attribute)
        return _derive(kernels, ("output_values", attribute), build, (attribute,))

    pre_masks = _pre_masks(prepared)
    # Post-part indicators evaluated on the observed data.
    post_masks = [
        _derive(kernels, ("post_mask", i, for_key), partial(evaluate_mask, d.post, view), for_reads)
        for i, d in enumerate(prepared.disjuncts)
    ]

    def _build_qualifies_pre() -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        for pre_mask, post_mask in zip(pre_masks, post_masks):
            out |= pre_mask & post_mask
        return out

    # -- unaffected tuples: post values equal pre values, everything deterministic.
    # The bases and their sums are per plan; a query never writes them.
    qualifies_pre = _derive(kernels, ("qualifies_pre", for_key), _build_qualifies_pre, for_reads)
    count_base = _derive(
        kernels, ("count_base", when_key, for_key),
        lambda: np.where(~scope, qualifies_pre.astype(float), 0.0), reads,
    )
    count_total = _derive(
        kernels, ("count_total", when_key, for_key), lambda: float(count_base.sum()), reads
    )
    sum_base, sum_total = None, 0.0
    if aggregate.needs_output_value:
        sum_reads = (*reads, query.output_attribute)
        sum_base = _derive(
            kernels, ("sum_base", when_key, for_key, query.output_attribute),
            lambda: np.where(~scope & qualifies_pre, output_values(view), 0.0), sum_reads,
        )
        sum_total = _derive(
            kernels, ("sum_total", when_key, for_key, query.output_attribute),
            lambda: float(sum_base.sum()), sum_reads,
        )

    # -- affected tuples: inclusion–exclusion over disjunct subsets (Sec. A.2.3),
    # accumulated at the union of the terms' rows only.
    rows = _term_rows(prepared, when_key, pre_masks)
    count_at: list[np.ndarray | None] = [None] * k  # None: no term put in yet
    sum_at: list[np.ndarray | None] = [None] * k
    n_terms = 0
    if rows.size:
        if fit_view is None:
            fit_view = view

        # Training targets live on the fit view and are only built on a
        # regressor-cache miss: the joint post-part indicator of the subset,
        # times the output value for sum targets.
        @cache
        def _fit_post_masks() -> list[np.ndarray]:
            if fit_view is view:
                return post_masks
            return [evaluate_mask(d.post, fit_view) for d in prepared.disjuncts]

        def _target(subset: tuple[int, ...], scaled: bool) -> np.ndarray:
            fit_post_masks = _fit_post_masks()
            joint_post = np.ones(len(fit_view), dtype=bool)
            for j in subset:
                joint_post &= fit_post_masks[j]
            target = joint_post.astype(float)
            return output_values(fit_view) * target if scaled else target

        def _term(regressor, updated, idx, idx_token, negative: bool, clip: bool):
            """Every variant's signed term: a constant regressor's number, else its rows."""
            value = regressor.constant
            if value is None:
                value = estimator.predict_rows(
                    regressor, view, updated, idx, kernels=kernels, idx_token=idx_token,
                    idx_reads=reads,
                )
                if clip:
                    np.clip(value, 0.0, 1.0, out=value)
            elif clip:
                value = min(max(value, 0.0), 1.0)
            if negative:
                value *= -1.0
            return value

        subsets = _subset_index_list(len(prepared.disjuncts))
        for subset in subsets:
            idx_token = ("idx", when_key, for_key, subset)
            idx = rows if len(subsets) == 1 else _term_index(prepared, when_key, pre_masks, subset)
            if not idx.size:
                continue
            # where the term's rows sit among ``rows``; ``None``: all of them
            at = None if len(idx) == len(rows) else _derive(
                kernels, ("at", when_key, for_key, subset), lambda: np.searchsorted(rows, idx),
                reads,
            )
            negative, alone = len(subset) % 2 == 0, len(subsets) == 1
            count_model = estimator.regressor_for(
                regressor_cache_key("count", subset, for_key),
                lambda s=subset: _target(s, False),
            )
            sum_model = None if not aggregate.needs_output_value else estimator.regressor_for(
                regressor_cache_key("sum", subset, for_key, query.output_attribute),
                lambda s=subset: _target(s, True),
            )
            # the variants' post values, encoded only when a regressor reads them
            updated = None
            if count_model.constant is None or (sum_model and sum_model.constant is None):
                updated = encoded_post(idx, idx_token)
            prob = _term(count_model, updated, idx, idx_token, negative, clip=True)
            count_at = _put_terms(count_at, prob, at, len(rows), alone)
            if sum_model is not None:
                prediction = _term(sum_model, updated, idx, idx_token, negative, clip=False)
                sum_at = _put_terms(sum_at, prediction, at, len(rows), alone)
            n_terms += 1
        if k > 1:
            estimator.release_design()
    if n_terms > 1:
        # Per-tuple qualification probabilities live in [0, 1]; clip the
        # overshoot of signed terms.  One clipped term is in [0, 1] already.
        for count in count_at:
            np.clip(count, 0.0, 1.0, out=count)
    return [
        Contributions(
            count_base=count_base,
            sum_base=sum_base,
            count_total=count_total,
            sum_total=sum_total,
            rows=rows,
            count_at=np.zeros(len(rows)) if count is None else count,
            sum_at=None if sum_base is None else np.zeros(len(rows)) if sum_ is None else sum_,
        )
        for count, sum_ in zip(count_at, sum_at)
    ]


def _put_terms(
    accumulated: list, term: np.ndarray | float, at: np.ndarray | None, n_rows: int, alone: bool
) -> list[np.ndarray]:
    """:func:`_put_term` of each variant's row of ``term``, or of the one number
    ``term`` to every variant; the only term of a plan (``alone``) puts that
    number into one row the variants share."""
    if not isinstance(term, float):
        return [_put_term(a, row, at, n_rows) for a, row in zip(accumulated, term)]
    if alone:
        return [_put_term(None, term, at, n_rows)] * len(accumulated)
    return [_put_term(a, term, at, n_rows) for a in accumulated]


def _put_term(
    accumulated: np.ndarray | None, term: np.ndarray | float, at: np.ndarray | None, n_rows: int
) -> np.ndarray:
    """Add one signed term, fresh and owned or a number, at the positions ``at``
    of ``n_rows`` term rows (``None``: all of them).  Before the first term
    every position holds the base's value there, ``+0.0``."""
    if at is None:
        if accumulated is None:
            if isinstance(term, float):
                return np.full(n_rows, term + 0.0)
            term += 0.0
            return term
        accumulated += term
        return accumulated
    if accumulated is None:
        accumulated = np.zeros(n_rows)
    accumulated[at] += term
    return accumulated


def indep_contribution_rows(
    query: WhatIfQuery, view: Relation, scope_mask: np.ndarray
) -> Contributions:
    """Contributions of the Indep baseline (no causal propagation).

    The one path that builds whole post columns: ``f(pre)`` inside the scope.
    It has no terms, so every row is in the bases.
    """
    post_view = view
    update = query.hypothetical_update
    for attribute in query.update_attributes:
        values = update.updated_values(attribute, view.column_view(attribute), scope_mask)
        post_view = post_view.with_column(attribute, values)
    qualify = evaluate_mask(query.for_clause, view, post_view)
    output_values = numeric_output_column(post_view, query.output_attribute)
    reads_output = get_aggregate(query.output_aggregate).needs_output_value
    return Contributions.from_per_row(
        qualify.astype(float),
        np.where(qualify, output_values, 0.0) if reads_output else None,
        np.empty(0, dtype=np.intp),
    )


def combine_aggregate(aggregate: str, contributions: Contributions) -> tuple[float, float]:
    """Fold contributions into ``(value, expected_qualifying_count)``."""
    expected_count = contributions.expected_count()
    if aggregate == "count":
        return expected_count, expected_count
    if aggregate == "sum":
        return contributions.expected_sum(), expected_count
    # avg: ratio of expected sum to expected qualifying count
    if expected_count <= 0:
        return 0.0, expected_count
    return contributions.expected_sum() / expected_count, expected_count


def block_contribution_summary(
    per_row: np.ndarray, block_of_row: np.ndarray, n_blocks: int, scope: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-block partial answers (Proposition 1) from per-row contributions.

    Returns ``(indices, totals, sizes, scope_sizes)``: the non-empty blocks,
    and per block the summed contribution, the tuple count and the count of
    tuples in the update scope.
    """
    totals = np.bincount(block_of_row, weights=per_row, minlength=n_blocks)
    sizes = np.bincount(block_of_row, minlength=n_blocks)
    scope_sizes = np.bincount(block_of_row[scope], minlength=n_blocks)
    return np.flatnonzero(sizes), totals, sizes, scope_sizes


def finalize_what_if(
    query: WhatIfQuery,
    contributions: Contributions,
    *,
    scope_mask: np.ndarray,
    block_of_row: np.ndarray,
    n_blocks: int,
    backdoor_set: tuple[str, ...],
    variant: str,
    metadata: dict[str, Any] | None = None,
    n_scope_tuples: int | None = None,
) -> WhatIfResult:
    """Reduce contributions into a :class:`WhatIfResult`.

    This is the single aggregation path shared by the unsharded engine and the
    shard merge: both reduce by the same two-part rule
    (:class:`Contributions`), so a sharded evaluation reduces in exactly the
    same order as an unsharded one.  ``n_scope_tuples`` is counted from
    ``scope_mask`` unless the caller has it.  The per-block summary is not
    computed here: ``block_contributions`` keeps the one side of the
    contributions its aggregate reads and rebuilds the per-row array for
    :func:`block_contribution_summary` on first access.
    """
    aggregate = get_aggregate(query.output_aggregate)
    value, expected_count = combine_aggregate(aggregate.name, contributions)
    # the block summary reads the side of the aggregate, and keeps only it
    if aggregate.name == "count":
        base, at = contributions.count_base, contributions.count_at
    else:
        base, at = contributions.sum_base, contributions.sum_at
    rows = contributions.rows
    if n_scope_tuples is None:
        n_scope_tuples = int(np.count_nonzero(scope_mask))
    return WhatIfResult(
        value=value,
        aggregate=aggregate.name,
        output_attribute=query.output_attribute,
        n_view_tuples=len(contributions.count_base),
        n_scope_tuples=n_scope_tuples,
        n_blocks=n_blocks,
        block_contributions=LazyBlockContributions(
            lambda: block_contribution_summary(
                _fill_at(base, rows, at), block_of_row, n_blocks, scope_mask
            )
        ),
        backdoor_set=backdoor_set,
        variant=variant,
        expected_qualifying_count=expected_count,
        metadata=metadata or {},
    )


@dataclass
class WhatIfEngine:
    """Evaluates :class:`WhatIfQuery` objects over a database and causal model."""

    database: Database
    causal_dag: CausalDAG | None = None
    config: EngineConfig = field(default_factory=EngineConfig)

    # -- public API -------------------------------------------------------------------

    def evaluate(
        self,
        query: WhatIfQuery,
        *,
        prepared: PreparedWhatIf | None = None,
        estimator: PostUpdateEstimator | None = None,
    ) -> WhatIfResult:
        """Answer ``query`` and return a :class:`WhatIfResult` with metadata.

        ``prepared`` and ``estimator`` allow a caller (notably the service
        layer in :mod:`repro.service`) to inject reusable state built by
        :meth:`prepare` / :meth:`build_estimator`; omitted pieces are built
        fresh, which is the cold single-query path.
        """
        return self.evaluate_variants([query], prepared=prepared, estimator=estimator)[0]

    def evaluate_variants(
        self,
        queries: Sequence[WhatIfQuery],
        *,
        prepared: PreparedWhatIf | None = None,
        estimator: PostUpdateEstimator | None = None,
    ) -> list[WhatIfResult]:
        """Answer what-ifs that differ only in their update constants (a plan
        group) with ``queries[0]``'s plan and one :func:`causal_contribution_rows`
        call; each answer is bitwise :meth:`evaluate`'s of the query alone, and
        ``runtime_seconds`` the group's time shared out evenly."""
        started = time.perf_counter()
        query = queries[0]
        if prepared is None:
            prepared = self.prepare(query)
        if self.config.ignores_dependencies:
            results = [self._evaluate_indep(member, prepared) for member in queries]
        else:  # HypeR / HypeR-NB / HypeR-sampled
            if estimator is None:
                estimator = self.build_estimator(query, prepared)
            n_scope_tuples = _derive(
                prepared.kernels,
                ("n_scope", query.when.canonical()),
                lambda: int(np.count_nonzero(prepared.scope_mask)),
                prepared.when_reads,
            )
            contributions = causal_contribution_rows(
                query, prepared, estimator, [member.updates for member in queries]
            )
            results = [
                finalize_what_if(
                    member,
                    member_contributions,
                    scope_mask=prepared.scope_mask,
                    block_of_row=prepared.block_of_row,
                    n_blocks=prepared.n_blocks,
                    backdoor_set=estimator.backdoor_set,
                    variant=self.config.variant,
                    metadata={
                        "n_training_rows": estimator.n_training_rows,
                        "n_disjuncts": len(prepared.disjuncts),
                        "feature_attributes": list(estimator.feature_attributes),
                    },
                    n_scope_tuples=n_scope_tuples,
                )
                for member, member_contributions in zip(queries, contributions)
            ]
        runtime = (time.perf_counter() - started) / len(queries)
        for result in results:
            result.runtime_seconds = runtime
        return results

    # -- preparation --------------------------------------------------------------------

    def prepare(
        self,
        query: WhatIfQuery,
        *,
        view: Relation | None = None,
        blocks: tuple[dict[str, np.ndarray], int] | None = None,
        view_dag: CausalDAG | None = None,
        kernels: KernelCache | None = None,
    ) -> PreparedWhatIf:
        """Derive everything the evaluation needs short of fitting estimators.

        ``view`` may inject a pre-built relevant view (it must be the
        materialisation of ``query.use`` over this engine's database),
        ``view_dag`` the matching DAG projection from
        :func:`~repro.core.estimator.build_view_dag`, ``blocks`` a
        pre-computed ``(labels, n_blocks)`` block assignment from
        :func:`repro.probdb.blocks.block_labels`, and ``kernels`` a shared
        per-plan :class:`~repro.relational.columnar.KernelCache` so parameter
        variants of one plan reuse each other's masks; all are served from
        caches by the service layer.
        """
        if view is None:
            view = query.use.build(self.database)
        if view_dag is None:
            view_dag = build_view_dag(self.causal_dag, query.use, self.database)
        disjuncts = validate_query(query, view, view_dag)
        block_of_row, n_blocks = self._block_assignment(query, view, blocks, kernels)
        return PreparedWhatIf(
            view=view,
            view_dag=view_dag,
            scope_mask=when_scope(query, view, kernels),
            disjuncts=disjuncts,
            post_attributes=outcome_attributes(query, disjuncts),
            block_of_row=block_of_row,
            n_blocks=n_blocks,
            for_key=query.for_clause.canonical(),
            kernels=kernels,
            when_reads=clause_reads(query.when),
            for_reads=clause_reads(query.for_clause),
        )

    def build_estimator(
        self,
        query: WhatIfQuery,
        prepared: PreparedWhatIf | None = None,
        *,
        view: Relation | None = None,
        view_dag: CausalDAG | None = None,
        kernels: KernelCache | None = None,
    ) -> PostUpdateEstimator:
        """The backdoor-adjusted estimator for ``query`` (reusable across queries).

        The estimator depends only on the relevant view, the projected DAG,
        the update/outcome attributes and the engine config — not on update
        constants, scope or ``For`` literals — so the service layer caches it
        by plan fingerprint and shares it across parameter variants.  Pass
        ``prepared`` when one is already at hand, or ``view``/``view_dag`` to
        build directly from cached components without a full :meth:`prepare`;
        its fits memoise in ``prepared``'s (or the given) ``kernels``.
        """
        if prepared is not None:
            view = prepared.view
            view_dag = prepared.view_dag
            post_attributes = prepared.post_attributes
            kernels = prepared.kernels
        else:
            if view is None:
                view = query.use.build(self.database)
            if view_dag is None:
                view_dag = build_view_dag(self.causal_dag, query.use, self.database)
            post_attributes = outcome_attributes(
                query, normalise_for_clause(query.for_clause)
            )
        return PostUpdateEstimator(
            view=view,
            view_dag=view_dag,
            update_attributes=list(query.update_attributes),
            outcome_attributes=post_attributes,
            config=self.config,
            rng=np.random.default_rng(self.config.random_state),
            kernels=kernels,
        )

    def _block_assignment(
        self,
        query: WhatIfQuery,
        view: Relation,
        blocks: tuple[dict[str, np.ndarray], int] | None,
        kernels: KernelCache | None,
    ) -> tuple[np.ndarray, int]:
        n = len(view)
        if not self.config.use_blocks or self.causal_dag is None:
            return _derive(kernels, ("block_of_row",), lambda: np.zeros(n, dtype=int)), 1
        labels, n_blocks = (
            blocks if blocks is not None else block_labels(self.database, self.causal_dag)
        )
        # The view's rows are the base relation's (``UseSpec.build``), so its
        # labels are the assignment: one array per database generation, read
        # and never written.  Not a kernel entry: a commit to another
        # relation can relabel these rows and leave the kernels warm.
        return labels[query.use.base_relation], n_blocks

    # -- Indep baseline ---------------------------------------------------------------------

    def _evaluate_indep(self, query: WhatIfQuery, prepared: PreparedWhatIf) -> WhatIfResult:
        """Provenance-style baseline: the update does not propagate to other attributes."""
        return finalize_what_if(
            query,
            indep_contribution_rows(query, prepared.view, prepared.scope_mask),
            scope_mask=prepared.scope_mask,
            block_of_row=prepared.block_of_row,
            n_blocks=prepared.n_blocks,
            backdoor_set=(),
            variant=Variant.INDEP,
            metadata={"n_disjuncts": len(prepared.disjuncts)},
        )
