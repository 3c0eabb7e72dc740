"""Decomposable aggregate functions (Definition 6 of the paper).

HypeR supports ``SUM``, ``COUNT`` and ``AVG``; each is *decomposable*: its value
over the whole database equals a combiner ``g`` applied to per-block partial
aggregates ``f'``.  For all three aggregates the combiner is a plain summation
(AVG is rewritten as ``(1 / |D|) * SUM`` exactly as in Example 8), which also
satisfies the scaling and additivity conditions of Definition 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import ExpressionError

__all__ = [
    "AggregateFunction",
    "SumAggregate",
    "CountAggregate",
    "AvgAggregate",
    "get_aggregate",
    "AGGREGATES",
]


@dataclass(frozen=True)
class AggregateFunction:
    """Base class: evaluates a multiset of values and exposes decomposition.

    Each aggregate defines ``evaluate(values)`` and ``partial(values,
    total_size)``, ``f'_{Q,D}`` applied to one block: ``total_size`` is the
    denominator context needed by AVG (the size of the full multiset over
    which the final average is taken); SUM and COUNT ignore it.
    """

    name: str = "aggregate"

    # -- whole-set evaluation ---------------------------------------------------

    def __call__(self, values: Iterable[Any]) -> float:
        return self.evaluate(list(values))

    # -- decomposition (Definition 6) --------------------------------------------

    def combine(self, partials: Iterable[float]) -> float:
        """``g`` — combine per-block partial aggregates (a sum for all three)."""
        return float(sum(partials))

    # -- per-tuple contribution (used by the causal estimator) --------------------

    @property
    def needs_output_value(self) -> bool:
        """Whether the estimator must model the output value (SUM/AVG) or only
        the satisfaction probability (COUNT)."""
        return True


class SumAggregate(AggregateFunction):
    """``SUM`` over numeric values."""

    def __init__(self) -> None:
        super().__init__(name="sum")

    def evaluate(self, values: Sequence[Any]) -> float:
        if len(values) == 0:
            return 0.0
        return float(np.sum(np.asarray(values, dtype=float)))

    def partial(self, values: Sequence[Any], total_size: int) -> float:
        return self.evaluate(values)


class CountAggregate(AggregateFunction):
    """``COUNT`` of qualifying tuples."""

    def __init__(self) -> None:
        super().__init__(name="count")

    def evaluate(self, values: Sequence[Any]) -> float:
        return float(len(values))

    def partial(self, values: Sequence[Any], total_size: int) -> float:
        return float(len(values))

    @property
    def needs_output_value(self) -> bool:
        return False


class AvgAggregate(AggregateFunction):
    """``AVG`` rewritten as ``(1 / |D|) * SUM`` so it decomposes over blocks."""

    def __init__(self) -> None:
        super().__init__(name="avg")

    def evaluate(self, values: Sequence[Any]) -> float:
        if len(values) == 0:
            return 0.0
        return float(np.mean(np.asarray(values, dtype=float)))

    def partial(self, values: Sequence[Any], total_size: int) -> float:
        if total_size <= 0:
            return 0.0
        return float(np.sum(np.asarray(values, dtype=float))) / total_size


AGGREGATES: dict[str, AggregateFunction] = {
    "sum": SumAggregate(),
    "count": CountAggregate(),
    "avg": AvgAggregate(),
    "average": AvgAggregate(),
    "mean": AvgAggregate(),
}


def get_aggregate(name: str | AggregateFunction) -> AggregateFunction:
    """Look up an aggregate by (case-insensitive) name, or pass one through."""
    if isinstance(name, AggregateFunction):
        return name
    key = str(name).strip().lower()
    if key not in AGGREGATES:
        raise ExpressionError(
            f"unsupported aggregate {name!r}; supported: sum, count, avg"
        )
    return AGGREGATES[key]
