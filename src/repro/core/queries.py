"""Programmatic what-if and how-to query objects.

These mirror the declarative SQL extension of Sections 3.1 and 4.1 — the parser
in :mod:`repro.lang` produces exactly these objects, and they can equally be
constructed directly in Python, which is what the examples and benchmarks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..exceptions import QuerySemanticsError
from ..relational.aggregates import get_aggregate
from ..relational.expressions import Expr
from ..relational.predicates import TRUE
from ..relational.view import UseSpec
from .updates import AttributeUpdate, HypotheticalUpdate, UpdateFunction

__all__ = [
    "WhatIfQuery",
    "LimitConstraint",
    "HowToQuery",
]


@dataclass
class WhatIfQuery:
    """A probabilistic what-if query (Section 3.1).

    Parameters
    ----------
    use:
        The ``Use`` operator describing the relevant view.
    updates:
        One or more attribute updates (the ``Update`` operator).
    output_attribute / output_aggregate:
        The ``Output`` operator: the view attribute whose post-update value is
        aggregated into the single query answer.
    when:
        The ``When`` predicate selecting the update scope ``S`` (pre values only).
    for_clause:
        The ``For`` predicate restricting which tuples contribute to the output
        (may mix ``Pre`` and ``Post`` values).
    """

    use: UseSpec
    updates: list[AttributeUpdate]
    output_attribute: str
    output_aggregate: str = "avg"
    when: Expr = TRUE
    for_clause: Expr = TRUE
    name: str = "what-if"

    def __post_init__(self) -> None:
        if not self.updates:
            raise QuerySemanticsError("a what-if query needs at least one Update clause")
        get_aggregate(self.output_aggregate)
        if self.when.uses_post():
            raise QuerySemanticsError("the When clause may only use Pre values")
        update_names = [u.attribute for u in self.updates]
        if self.output_attribute in update_names:
            raise QuerySemanticsError(
                "the Output attribute cannot be one of the updated attributes"
            )

    @property
    def hypothetical_update(self) -> HypotheticalUpdate:
        return HypotheticalUpdate(updates=list(self.updates), when=self.when)

    @property
    def update_attributes(self) -> list[str]:
        return [u.attribute for u in self.updates]

    def with_updates(self, updates: Sequence[AttributeUpdate]) -> "WhatIfQuery":
        """Copy of this query with a different set of updates (used by how-to search)."""
        return WhatIfQuery(
            use=self.use,
            updates=list(updates),
            output_attribute=self.output_attribute,
            output_aggregate=self.output_aggregate,
            when=self.when,
            for_clause=self.for_clause,
            name=self.name,
        )

    def describe(self) -> str:
        parts = [f"Use {self.use.base_relation}"]
        parts.append("Update " + ", ".join(u.describe() for u in self.updates))
        parts.append(f"Output {self.output_aggregate}(Post({self.output_attribute}))")
        return "; ".join(parts)


@dataclass(frozen=True)
class LimitConstraint:
    """A single ``Limit`` condition restricting post-update values of an attribute.

    Exactly the forms of Section 4.1 are supported:

    * numeric range: ``lower <= Post(B) <= upper`` (either side optional);
    * permissible values: ``Post(B) In (v1, v2, ...)``;
    * L1 budget: ``L1(Pre(B), Post(B)) <= max_l1`` — maximal absolute change.
    """

    attribute: str
    lower: float | None = None
    upper: float | None = None
    allowed_values: tuple[Any, ...] | None = None
    max_l1: float | None = None

    def admits(self, pre_value: Any, post_value: Any) -> bool:
        """Whether changing ``pre_value`` to ``post_value`` satisfies this limit."""
        if self.allowed_values is not None and post_value not in self.allowed_values:
            return False
        if self.lower is not None or self.upper is not None or self.max_l1 is not None:
            try:
                post_number = float(post_value)
            except (TypeError, ValueError):
                return False
            if self.lower is not None and post_number < self.lower:
                return False
            if self.upper is not None and post_number > self.upper:
                return False
            if self.max_l1 is not None:
                try:
                    pre_number = float(pre_value)
                except (TypeError, ValueError):
                    return False
                if abs(post_number - pre_number) > self.max_l1:
                    return False
        return True


@dataclass
class HowToQuery:
    """A probabilistic how-to query (Section 4.1).

    ``update_attributes`` lists the attributes the optimiser may change
    (``HowToUpdate``); ``limits`` carries the ``Limit`` constraints;
    ``objective_attribute``/``objective_aggregate`` with ``maximize`` encode
    ``ToMaximize`` / ``ToMinimize``; ``max_updates`` optionally budgets the
    number of attributes that may be changed (Section 5.4 uses a budget of one
    for the Student-Syn case study).
    """

    use: UseSpec
    update_attributes: list[str]
    objective_attribute: str
    objective_aggregate: str = "avg"
    maximize: bool = True
    when: Expr = TRUE
    for_clause: Expr = TRUE
    limits: list[LimitConstraint] = field(default_factory=list)
    max_updates: int | None = None
    candidate_multipliers: tuple[float, ...] = (0.8, 0.9, 1.1, 1.2, 1.5)
    candidate_buckets: int = 6
    name: str = "how-to"

    def __post_init__(self) -> None:
        if not self.update_attributes:
            raise QuerySemanticsError("a how-to query needs at least one HowToUpdate attribute")
        if len(set(self.update_attributes)) != len(self.update_attributes):
            raise QuerySemanticsError("duplicate attributes in HowToUpdate")
        get_aggregate(self.objective_aggregate)
        if self.objective_attribute in self.update_attributes:
            raise QuerySemanticsError(
                "the objective attribute cannot be one of the updatable attributes"
            )
        if self.when.uses_post():
            raise QuerySemanticsError("the When clause may only use Pre values")
        if self.max_updates is not None and self.max_updates < 1:
            raise QuerySemanticsError("max_updates must be at least 1 when given")
        if self.candidate_buckets < 1:
            raise QuerySemanticsError(
                f"candidate_buckets must be at least 1, got {self.candidate_buckets}"
            )
        if not all(math.isfinite(m) for m in self.candidate_multipliers):
            raise QuerySemanticsError(
                f"candidate multipliers must be finite, got {self.candidate_multipliers}"
            )

    def limits_for(self, attribute: str) -> list[LimitConstraint]:
        return [limit for limit in self.limits if limit.attribute == attribute]

    # Every candidate of this query is a what-if query with this ``Output``
    # (Definition 7); the engine's validators and its contribution kernel read
    # either query kind through these two names.

    @property
    def output_attribute(self) -> str:
        return self.objective_attribute

    @property
    def output_aggregate(self) -> str:
        return self.objective_aggregate

    def admits(self, attribute: str, pre_value: Any, post_value: Any) -> bool:
        """Whether every Limit constraint on ``attribute`` admits this change."""
        return all(
            limit.admits(pre_value, post_value) for limit in self.limits_for(attribute)
        )
