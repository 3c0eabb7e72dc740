"""Shard-local evaluation: per-query work proportional to owned rows.

Evaluating scope / ``For`` masks, post-update columns and estimator
predictions over the full view is work every worker would duplicate.  Here
those per-query vectorized pieces run on the shard's **local view** (the full
view filtered to owned rows), so a query's marginal cost in a worker scales
with ``n / n_shards``.  What-if does it with the engine's own kernel —
:func:`local_what_if_contributions` is
:func:`repro.core.whatif.causal_contribution_rows` prepared over the local
view; how-to candidates have their mirror in :class:`LocalHowTo`.

The bitwise-exactness contract survives because the two remaining full-view
dependencies are handled explicitly:

* **Training targets** — regressors must be fitted on full-view targets (every
  shard fits the identical model).  The full-view masks behind them are built
  *lazily*, inside
  :meth:`~repro.core.estimator.PostUpdateEstimator.regressor_for`'s target
  factory, so only on a regressor-cache miss — once per plan per worker,
  amortised to zero across a suite.
* **Row-stable kernels** — predicate masks, update functions, encoders and
  regressor predictions are all elementwise / per-row deterministic (see the
  einsum note in :mod:`repro.ml.linear`), so evaluating them on a filtered
  view produces bit-identical values to slicing a full-view evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..core.estimator import PostUpdateEstimator
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.updates import AttributeUpdate, apply_update_column
from ..core.whatif import (
    PreparedWhatIf,
    _subset_index_list,
    causal_contribution_rows,
    numeric_output_column,
    regressor_cache_key,
    scope_and_post_values,
)
from ..relational.columnar import KernelCache
from ..relational.predicates import Conjunction, evaluate_mask, split_pre_post, to_dnf
from ..relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.howto import PreparedHowTo

__all__ = [
    "LocalHowTo",
    "local_indep_contributions",
    "local_what_if_contributions",
]


def _predict_local(
    estimator: PostUpdateEstimator,
    regressor,
    local_view: Relation,
    post_values: dict[str, Sequence[Any]],
    idx: np.ndarray,
    n_local: int,
    *,
    kernels: KernelCache | None = None,
    idx_token: Any = None,
) -> np.ndarray:
    """:meth:`PostUpdateEstimator.predict_rows` at the local rows ``idx``,
    scattered into a full-length-local array."""
    out = np.zeros(n_local)
    out[idx] = estimator.predict_rows(
        regressor, local_view, post_values, idx, kernels=kernels, idx_token=idx_token
    )
    return out


def local_what_if_contributions(
    query: WhatIfQuery,
    full_view: Relation,
    local_view: Relation,
    disjuncts: Sequence[Conjunction],
    estimator: PostUpdateEstimator,
    *,
    kernels: KernelCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-owned-row (count, sum) contributions of the causal variants.

    :func:`repro.core.whatif.causal_contribution_rows` itself, prepared over
    ``local_view`` with ``full_view`` as the view to fit on: every per-query
    vectorized step runs on the shard's rows only, and the returned arrays
    align with the local view's rows, bitwise equal to the same rows of an
    unsharded evaluation.  ``kernels`` (per plan, owned by the worker
    runtime) holds local-view-sized arrays.
    """
    scope, post_values = scope_and_post_values(query, local_view, kernels)
    prepared = PreparedWhatIf(
        view=local_view,
        view_dag=None,
        scope_mask=scope,
        post_values=post_values,
        disjuncts=list(disjuncts),
        post_attributes=[],
        # block labels are full-view merge carriers, not contribution inputs
        block_of_row=np.empty(0, dtype=int),
        n_blocks=0,
        for_key=query.for_clause.canonical(),
        kernels=kernels,
        fused=True,
    )
    return causal_contribution_rows(query, prepared, estimator, fit_view=full_view)


class _HowToTargets:
    """Full-view fit targets of one how-to query, from the prepared state.

    The prepared masks already live on ``shared`` (the full-view
    :class:`~repro.core.howto.PreparedHowTo`), so "building" a target is one
    AND-fold over them; it still only runs inside
    :meth:`~repro.core.estimator.PostUpdateEstimator.regressor_for`'s factory,
    i.e. once per (kind, subset) per worker.
    """

    def __init__(self, shared: "PreparedHowTo") -> None:
        self._shared = shared

    def _joint_post(self, subset: tuple[int, ...]) -> np.ndarray:
        joint = np.ones(len(self._shared.view), dtype=bool)
        for k in subset:
            joint &= self._shared.post_masks[k]
        return joint

    def count_target(self, subset: tuple[int, ...]) -> np.ndarray:
        return self._joint_post(subset).astype(float)

    def sum_target(self, subset: tuple[int, ...]) -> np.ndarray:
        return self._shared.output_values * self._joint_post(subset).astype(float)


class LocalHowTo:
    """Shard-local candidate evaluation of one how-to query.

    Mirrors :func:`repro.core.howto.candidate_contribution_rows` operation for
    operation, with every per-candidate vectorized step (post-update columns,
    mask folds, predictions) evaluated on the shard's **local view** only — a
    candidate's marginal cost scales with ``n / n_shards``, like what-if.
    The exactness contract is the same as :func:`local_what_if_contributions`:
    regressors are fitted on full-view targets derived from the prepared
    full-view masks (every shard fits the identical model), and every local
    step is row-stable, so the returned per-owned-row contributions are
    bitwise equal to the same rows of an unsharded candidate evaluation.

    ``kernels`` memoises the candidate-independent pieces across parameter
    variants of one plan (scope / pre / post masks, output column, applicable
    index sets, encoded backdoor blocks) under the same keys the what-if
    kernels use — the masks are literally the same arrays when a what-if query
    of the same shape shares the plan cache.
    """

    def __init__(
        self,
        query: HowToQuery,
        shared: "PreparedHowTo",
        local_view: Relation,
        *,
        kernels: KernelCache | None = None,
    ) -> None:
        self.query = query
        self.shared = shared
        self.local_view = local_view
        self.kernels = kernels
        self._n_local = len(local_view)
        self._when_key = query.when.canonical()
        self._for_key = shared.for_key
        disjuncts = [split_pre_post(atoms) for atoms in to_dnf(query.for_clause)]
        self.scope = self._derived(
            ("scope_mask", self._when_key),
            lambda: evaluate_mask(query.when, local_view),
        )
        self._pre_masks = [
            self._derived(
                ("pre_mask", i, self._for_key),
                lambda d=d: evaluate_mask(d.pre, local_view),
            )
            for i, d in enumerate(disjuncts)
        ]
        self._post_masks = [
            self._derived(
                ("post_mask", i, self._for_key),
                lambda d=d: evaluate_mask(d.post, local_view),
            )
            for i, d in enumerate(disjuncts)
        ]
        self._output_values = self._derived(
            ("output_values", query.objective_attribute),
            lambda: numeric_output_column(local_view, query.objective_attribute),
        )

        def _build_qualifies_pre() -> np.ndarray:
            out = np.zeros(self._n_local, dtype=bool)
            for pre_mask, post_mask in zip(self._pre_masks, self._post_masks):
                out |= pre_mask & post_mask
            return out

        self._qualifies_pre = self._derived(
            ("qualifies_pre", self._for_key), _build_qualifies_pre
        )
        self._targets = _HowToTargets(shared)

    def _derived(self, key: Any, build: Any) -> np.ndarray:
        return build() if self.kernels is None else self.kernels.get(key, build)

    def post_values(
        self, updates: Sequence[AttributeUpdate]
    ) -> dict[str, Sequence[Any]]:
        """Local post-update columns for one (possibly empty) update choice."""
        post_values: dict[str, Sequence[Any]] = {}
        by_attribute = {u.attribute: u.function for u in updates}
        for attribute in self.query.update_attributes:
            pre = self.local_view.column_view(attribute)
            if attribute in by_attribute:
                post_values[attribute] = apply_update_column(
                    by_attribute[attribute], pre, self.scope
                )
            else:
                post_values[attribute] = pre
        return post_values

    def contributions(
        self, post_values: dict[str, Sequence[Any]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-owned-row (count, sum) contributions of one candidate choice."""
        estimator = self.shared.estimator
        count_contrib = np.zeros(self._n_local)
        sum_contrib = np.zeros(self._n_local)
        unaffected = ~self.scope
        count_contrib[unaffected] = self._qualifies_pre[unaffected].astype(float)
        sum_contrib[unaffected] = np.where(
            self._qualifies_pre[unaffected], self._output_values[unaffected], 0.0
        )
        if self.scope.any():
            for subset in _subset_index_list(len(self._pre_masks)):
                sign = 1.0 if len(subset) % 2 == 1 else -1.0

                def _applicable() -> np.ndarray:
                    out = self.scope.copy()
                    for k in subset:
                        out &= self._pre_masks[k]
                    return out

                applicable = self._derived(
                    ("applicable", self._when_key, self._for_key, subset), _applicable
                )
                if not applicable.any():
                    continue
                idx_token = ("idx", self._when_key, self._for_key, subset)
                idx = self._derived(idx_token, lambda: np.flatnonzero(applicable))
                regressor = estimator.regressor_for(
                    regressor_cache_key("count", subset, self._for_key),
                    lambda s=subset: self._targets.count_target(s),
                )
                prob = _predict_local(
                    estimator,
                    regressor,
                    self.local_view,
                    post_values,
                    idx,
                    self._n_local,
                    kernels=self.kernels,
                    idx_token=idx_token,
                )
                prob = np.clip(prob, 0.0, 1.0)
                count_contrib[applicable] += sign * prob[applicable]
                if self.shared.aggregate_name in ("sum", "avg"):
                    regressor = estimator.regressor_for(
                        regressor_cache_key(
                            "sum",
                            subset,
                            self._for_key,
                            self.query.objective_attribute,
                        ),
                        lambda s=subset: self._targets.sum_target(s),
                    )
                    expected = _predict_local(
                        estimator,
                        regressor,
                        self.local_view,
                        post_values,
                        idx,
                        self._n_local,
                        kernels=self.kernels,
                        idx_token=idx_token,
                    )
                    sum_contrib[applicable] += sign * expected[applicable]
        return count_contrib, sum_contrib


def local_indep_contributions(
    query: WhatIfQuery, local_view: Relation
) -> tuple[np.ndarray, np.ndarray]:
    """Per-owned-row contributions of the Indep baseline on the local view."""
    scope = evaluate_mask(query.when, local_view)
    update = query.hypothetical_update
    post_view = local_view
    for attribute in query.update_attributes:
        post_view = post_view.with_column(
            attribute,
            update.updated_values(
                attribute, local_view.column_view(attribute), scope
            ),
        )
    qualify = evaluate_mask(query.for_clause, local_view, post_view)
    output_values = numeric_output_column(post_view, query.output_attribute)
    count_contrib = qualify.astype(float)
    sum_contrib = np.where(qualify, output_values, 0.0)
    return count_contrib, sum_contrib
