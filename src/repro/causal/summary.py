"""Summary functions ψ for variable-cardinality relational parents.

Section 2.2 of the paper assumes a *distribution-preserving summary function*
ψ that projects the (variable-size) set of relational parents of a ground
variable onto a fixed-length vector, so a single conditional distribution can
be estimated for all tuples.  In practice (and in the paper's Example 5) ψ is
an aggregate such as the average: a product's many review ratings are
summarised into one ``Avg(Rating)`` value.

This module provides the small vocabulary of summary functions used when
building the augmented causal graph and the relevant view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


from ..exceptions import CausalModelError
from ..relational.aggregates import get_aggregate

__all__ = ["SummaryFunction", "AggregateSummary", "IdentitySummary", "make_summary"]


class SummaryFunction:
    """Maps a multiset of parent values to a single summary value (``__call__``)."""

    name: str = "summary"


@dataclass(frozen=True)
class AggregateSummary(SummaryFunction):
    """Summarise parent values with a SQL aggregate (avg / sum / count)."""

    how: str = "avg"

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.how

    def __call__(self, values: Sequence[Any]) -> float:
        cleaned = [v for v in values if v is not None]
        if not cleaned:
            return float("nan")
        return get_aggregate(self.how).evaluate(cleaned)


@dataclass(frozen=True)
class IdentitySummary(SummaryFunction):
    """Pass-through summary for single-valued parent sets."""

    name: str = "identity"

    def __call__(self, values: Sequence[Any]) -> Any:
        cleaned = [v for v in values if v is not None]
        if len(cleaned) > 1:
            raise CausalModelError(
                "IdentitySummary received multiple parent values; use an aggregate summary"
            )
        return cleaned[0] if cleaned else None


def make_summary(how: str | SummaryFunction) -> SummaryFunction:
    """Build a summary function from a name (aggregate) or pass one through."""
    if isinstance(how, SummaryFunction):
        return how
    if str(how).lower() in ("identity", "id"):
        return IdentitySummary()
    return AggregateSummary(str(how).lower())

