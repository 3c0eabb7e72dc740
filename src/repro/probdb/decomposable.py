"""Decomposed computation over blocks (Proposition 1 / Proposition 3).

Given a block-independent decomposition and a decomposable aggregate, the
what-if answer over the whole database is the combiner ``g`` applied to the
per-block answers of the modified query ``Q'`` (the aggregate replaced by its
partial form ``f'``).  This module provides the bookkeeping for that
composition so the estimator can stay block-local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..relational.aggregates import AggregateFunction, get_aggregate

__all__ = ["BlockResult", "combine_block_results", "decomposed_value"]


@dataclass(frozen=True)
class BlockResult:
    """Partial result of the modified query on one block."""

    block_index: int
    partial_value: float
    tuple_count: int = 0


def combine_block_results(
    aggregate: AggregateFunction | str,
    results: Iterable[BlockResult],
) -> float:
    """Apply the combiner ``g`` (a sum for SUM / COUNT / AVG) to block partials."""
    get_aggregate(aggregate)  # validates the aggregate name
    return float(sum(r.partial_value for r in results))


def decomposed_value(
    aggregate: AggregateFunction | str,
    per_block_values: Sequence[Sequence[float]],
) -> float:
    """Evaluate a decomposable aggregate from raw per-block value multisets.

    This is the textbook statement of Definition 6: per-block partials are
    computed with ``f'`` (which for AVG needs the global size) and combined
    with ``g``.  Used in tests to check ``aggr(all values) == g({f'(block)})``.
    """
    aggregate = get_aggregate(aggregate)
    total_size = sum(len(block) for block in per_block_values)
    if total_size == 0:
        return 0.0
    partials = [
        aggregate.partial(list(block), total_size) for block in per_block_values
    ]
    return aggregate.combine(partials)


def check_decomposability(
    aggregate: AggregateFunction | str,
    per_block_values: Sequence[Sequence[float]],
    *,
    tolerance: float = 1e-9,
) -> bool:
    """Verify the decomposition identity for a concrete partition of values."""
    aggregate = get_aggregate(aggregate)
    flat = [v for block in per_block_values for v in block]
    direct = aggregate.evaluate(flat)
    composed = decomposed_value(aggregate, per_block_values)
    if abs(direct - composed) > tolerance * max(1.0, abs(direct)):
        return False
    return True
