"""Test oracles and inputs built on the engine's public pieces.

:func:`counterfactual_mean` is Equation 1 written out per row over whole
post-update columns, the form Appendix A.2.3's per-row checks compare the
engine's kernels against.  :func:`candidate_what_if` is Definition 7's
candidate what-if query, whose answer a how-to's value of a candidate must
equal.  :func:`what_if_template_batch` is the repeated-template workload the
service and unparse tests feed.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.core.estimator import PostUpdateEstimator
from repro.core.queries import HowToQuery, WhatIfQuery
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.core.whatif import encode_post
from repro.exceptions import QuerySemanticsError
from repro.workloads import WorkloadGenerator


def counterfactual_mean(
    estimator: PostUpdateEstimator,
    target: Sequence[float],
    predict_mask: Sequence[bool],
    post_values: Mapping[str, Sequence[Any]],
    *,
    cache_key: Hashable | None = None,
) -> np.ndarray:
    """Predict ``E[target | B = post values, C = observed]`` for masked rows.

    ``target`` is the per-row training target computed on the observed
    (pre-update) view; ``post_values`` maps each update attribute to its full
    post-update column.  The returned array has one entry per view row and is
    only meaningful where ``predict_mask`` is true.  The engines go through
    ``regressor_for`` and ``predict_rows`` at each term's rows instead.
    """
    view = estimator.view
    target = np.asarray(target, dtype=float)
    predict_mask = np.asarray(predict_mask, dtype=bool)
    if len(target) != len(view) or len(predict_mask) != len(view):
        raise QuerySemanticsError("target and mask must align with the view rows")
    missing = [a for a in estimator.update_attributes if a not in post_values]
    if missing:
        raise QuerySemanticsError(f"post_values is missing update attributes {missing}")

    regressor = estimator.regressor_for(cache_key, lambda: target)
    out = np.zeros(len(view))
    if not predict_mask.any():
        return out
    idx = np.flatnonzero(predict_mask)
    at_idx = {}
    for attribute in estimator.update_attributes:
        column = post_values[attribute]
        if not isinstance(column, np.ndarray):
            column = np.asarray(column, dtype=object)
        at_idx[attribute] = column[idx]
    encoded = {a: encode_post(estimator.encoder(a), v, [None]) for a, v in at_idx.items()}
    (out[idx],) = estimator.predict_rows(regressor, view, encoded, idx)
    return out


def candidate_what_if(query: HowToQuery, updates: Sequence[AttributeUpdate]) -> WhatIfQuery:
    """The candidate what-if query of ``query`` for a concrete choice of updates (Def. 7)."""
    return WhatIfQuery(
        use=query.use,
        updates=list(updates),
        output_attribute=query.output_attribute,
        output_aggregate=query.output_aggregate,
        when=query.when,
        for_clause=query.for_clause,
        name=f"{query.name}-candidate",
    )


def what_if_template_batch(
    generator: WorkloadGenerator,
    n_queries: int,
    *,
    factor_range: tuple[float, float] = (0.8, 1.3),
    **kwargs,
) -> list[WhatIfQuery]:
    """``n_queries`` parameter variants of *one* what-if template.

    Every query shares one logical plan (same view, update attribute and
    clause structure) and differs only in the multiplicative update constant,
    evenly spread over ``factor_range``: the shape a dashboard sweeping one
    knob sends.
    """
    template = generator.what_if(**kwargs)
    attribute = template.update_attributes[0]
    low, high = factor_range
    queries = []
    for i in range(n_queries):
        fraction = i / max(1, n_queries - 1)
        factor = low + (high - low) * fraction
        queries.append(template.with_updates([AttributeUpdate(attribute, MultiplyBy(factor))]))
    return queries
