"""Shard-local what-if evaluation: per-query work proportional to owned rows.

Kept until ROADMAP 1(d) + 2(d), with the row-scatter of a single what-if
(:meth:`ShardWorkerRuntime.what_if_partial
<repro.shard.pool.ShardWorkerRuntime.what_if_partial>`) it serves.

Evaluating scope / ``For`` masks, post-update columns and estimator
predictions over the full view is work every worker would duplicate.  Here
those per-query vectorized pieces run on the shard's **local view** (the full
view filtered to owned rows), so a query's marginal cost in a worker scales
with ``n / n_shards``, through the engine's own kernel:
:func:`local_what_if_contributions` is
:func:`repro.core.whatif.causal_contribution_rows` prepared over the local
view.

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

from typing import Sequence

import numpy as np

from ..core.estimator import PostUpdateEstimator
from ..core.queries import WhatIfQuery
from ..core.whatif import (
    PreparedWhatIf,
    causal_contribution_rows,
    indep_contribution_rows,
    scope_and_post_values,
)
from ..relational.columnar import KernelCache
from ..relational.predicates import Conjunction
from ..relational.relation import Relation

__all__ = ["local_indep_contributions", "local_what_if_contributions"]


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
    )
    return causal_contribution_rows(query, prepared, estimator, fit_view=full_view)


def local_indep_contributions(
    query: WhatIfQuery, local_view: Relation
) -> tuple[np.ndarray, np.ndarray]:
    """Per-owned-row contributions of the Indep baseline on the local view."""
    _scope, post_values = scope_and_post_values(query, local_view)
    return indep_contribution_rows(query, local_view, post_values)
