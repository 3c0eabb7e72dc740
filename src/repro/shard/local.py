"""One shard's row-scatter partial of a what-if: work proportional to owned rows.

Kept until ROADMAP 1(d) only because ``perf/`` times it: no query path of
``src/`` row-scatters any more (every whole query is answered by one
:class:`~repro.service.session.HypeRService`).  A cluster shard node answers
``kind="whatif"`` legs of ``/v1/partial`` with :func:`what_if_partial`, and
:func:`repro.shard.merge.merge_what_if` folds the legs' partials.

The full-view pieces — the relevant view, the validated disjuncts, the scope
mask, the block labels and the fitted estimator — come through the service's
plan caches (:meth:`HypeRService.prepare
<repro.service.session.HypeRService.prepare>`); only the per-query
vectorized work runs on the shard's **local view** (the full view filtered to
owned rows), through the engine's own kernel
:func:`repro.core.whatif.causal_contribution_rows`.

The bitwise-exactness contract survives because the two remaining full-view
dependencies are handled explicitly:

* **Training targets** — regressors are fitted on full-view targets
  (``fit_view``), built lazily only on a regressor-cache miss.
* **Row-stable kernels** — predicate masks, update functions, encoders and
  regressor predictions are all elementwise / per-row deterministic (see the
  einsum note in :mod:`repro.ml.linear`), so evaluating them on a filtered
  view produces bit-identical values to slicing a full-view evaluation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from ..core.config import Variant
from ..core.queries import WhatIfQuery
from ..core.whatif import (
    causal_contribution_rows,
    indep_contribution_rows,
    term_rows,
    when_scope,
)
from .merge import ShardMergeError, WhatIfShardPartial
from .partition import Shard

__all__ = ["what_if_partial"]


def what_if_partial(service: Any, shard: Shard, query: WhatIfQuery) -> WhatIfShardPartial:
    """The contributions of ``shard``'s rows to ``query`` at ``service``'s latest generation.

    ``shard`` must come from a partition of that generation's database.
    Shard 0 also carries the full-view context the merge needs once (scope
    mask, block labels, the rows of the inclusion–exclusion terms).
    """
    plan = service.prepare(query)
    full = plan.what_if
    view = full.view
    mask = shard.own_rows(query.use.base_relation)
    if len(mask) != len(view):
        raise ShardMergeError(
            f"shard row mask over {query.use.base_relation!r} has {len(mask)} rows "
            f"but the relevant view has {len(view)} — the shard slice is stale"
        )
    local_view = view.filter(mask)
    scope = when_scope(query, local_view)
    meta: dict[str, Any] = {"n_disjuncts": len(full.disjuncts)}
    if plan.estimator is None:
        contributions = indep_contribution_rows(query, local_view, scope)
        meta.update(variant=Variant.INDEP, backdoor_set=())
    else:
        local = replace(
            full,
            view=local_view,
            scope_mask=scope,
            # block labels are full-view merge carriers, not contribution inputs
            block_of_row=np.empty(0, dtype=int),
            kernels=None,
        )
        (contributions,) = causal_contribution_rows(
            query, local, plan.estimator, fit_view=view
        )
        estimator = plan.estimator
        meta.update(
            variant=service.config.variant,
            backdoor_set=tuple(estimator.backdoor_set),
            n_training_rows=estimator.n_training_rows,
            feature_attributes=list(estimator.feature_attributes),
        )
    count, sum_ = contributions.per_row()
    partial = WhatIfShardPartial(
        shard_index=shard.index,
        n_shards=shard.n_shards,
        n_rows=len(view),
        row_indices=np.flatnonzero(mask),
        count=count,
        sum=sum_,
        meta=meta,
    )
    if shard.index == 0:
        partial.scope_mask = full.scope_mask
        partial.block_of_row, partial.n_blocks = full.block_of_row, full.n_blocks
        partial.term_rows = (
            contributions.rows if plan.estimator is None else term_rows(query, full)
        )
    return partial
