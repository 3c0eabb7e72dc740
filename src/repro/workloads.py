"""Random query workloads for benchmarking.

The paper's scaling experiments (Figure 12) average runtimes "over five
different queries".  This module provides that workload machinery: a
:class:`WorkloadGenerator` that draws random — but always semantically valid —
what-if and how-to queries against a :class:`~repro.datasets.base.SyntheticDataset`
(or any database + UseSpec pair), varying the updated attribute, the update
function, the When/For selectivity and the output aggregate.

The generator is deterministic given its seed so benchmark workloads are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from .core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo, UpdateFunction
from .exceptions import HypeRError
from .relational.database import Database
from .relational.expressions import Expr, post, pre
from .relational.predicates import TRUE
from .relational.relation import Relation
from .relational.view import UseSpec

__all__ = ["WorkloadGenerator"]


@dataclass
class WorkloadGenerator:
    """Draws random valid what-if / how-to queries over a relevant view.

    Parameters
    ----------
    database / use:
        The database and ``Use`` specification defining the relevant view the
        queries will run against.
    output_attribute:
        The attribute whose post-update value queries aggregate (must be a
        numeric view column).
    update_candidates:
        The mutable view attributes the generator may pick as update attributes
        (a repeated name counts once).  Defaults to every mutable numeric
        attribute except the output.
    seed:
        Seed of the internal random generator.
    """

    database: Database
    use: UseSpec
    output_attribute: str
    update_candidates: Sequence[str] | None = None
    seed: int = 0
    _view: Relation = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._view = self.use.build(self.database)
        self._rng = np.random.default_rng(self.seed)
        if self.output_attribute not in self._view.schema:
            raise HypeRError(
                f"output attribute {self.output_attribute!r} is not a view column"
            )
        if self.update_candidates is None:
            self.update_candidates = [
                name
                for name in self._view.attribute_names
                if name != self.output_attribute
                and self._view.schema.is_mutable(name)
                and self._view.schema.domain(name).is_numeric
            ]
        self.update_candidates = list(dict.fromkeys(self.update_candidates))
        missing = [a for a in self.update_candidates if a not in self._view.schema]
        if missing:
            raise HypeRError(f"update candidates {missing} are not view columns")
        if not self.update_candidates:
            raise HypeRError("no usable update attributes for the workload generator")

    # -- helpers -------------------------------------------------------------------

    @classmethod
    def for_dataset(cls, dataset, output_attribute: str, **kwargs) -> "WorkloadGenerator":
        """Convenience constructor from a :class:`SyntheticDataset`."""
        return cls(
            database=dataset.database,
            use=dataset.default_use,
            output_attribute=output_attribute,
            **kwargs,
        )

    def _observed(self, attribute: str) -> np.ndarray:
        values = [v for v in self._view.column_view(attribute) if v is not None]
        return np.asarray(values, dtype=float)

    def _random_update_function(self, attribute: str) -> UpdateFunction:
        observed = self._observed(attribute)
        if observed.size == 0:
            return MultiplyBy(1.1)
        kind = self._rng.choice(["set", "multiply", "add"])
        if kind == "set":
            quantile = float(self._rng.uniform(0.1, 0.9))
            return SetTo(float(np.quantile(observed, quantile)))
        if kind == "multiply":
            return MultiplyBy(float(self._rng.uniform(0.7, 1.3)))
        spread = float(observed.std()) or 1.0
        return AddConstant(float(self._rng.uniform(-spread, spread)))

    def _random_selection(self, attribute: str, selectivity: float) -> Expr:
        """A Pre predicate on ``attribute`` keeping roughly ``selectivity`` of tuples."""
        observed = self._observed(attribute)
        if observed.size == 0:
            return TRUE
        threshold = float(np.quantile(observed, 1.0 - selectivity))
        return pre(attribute) >= threshold

    def _pick_attribute(self, exclude: Sequence[str] = ()) -> str:
        return str(self._rng.choice([a for a in self.update_candidates if a not in exclude]))

    # -- query generation -----------------------------------------------------------

    def what_if(
        self,
        *,
        aggregate: str | None = None,
        when_selectivity: float | None = None,
        with_post_condition: bool = False,
    ) -> WhatIfQuery:
        """Draw one random what-if query."""
        attribute = self._pick_attribute()
        aggregate = aggregate or str(self._rng.choice(["avg", "sum", "count"]))
        when = TRUE
        if when_selectivity is not None:
            when = self._random_selection(attribute, when_selectivity)
        for_clause: Expr = TRUE
        if with_post_condition:
            observed = self._observed(self.output_attribute)
            threshold = float(np.quantile(observed, 0.5)) if observed.size else 0.0
            for_clause = post(self.output_attribute) > threshold
        return WhatIfQuery(
            use=self.use,
            updates=[AttributeUpdate(attribute, self._random_update_function(attribute))],
            output_attribute=self.output_attribute,
            output_aggregate=aggregate,
            when=when,
            for_clause=for_clause,
            name=f"workload-whatif-{attribute}",
        )

    def how_to(
        self,
        *,
        n_attributes: int = 1,
        aggregate: str = "avg",
        maximize: bool = True,
        candidate_buckets: int = 3,
    ) -> HowToQuery:
        """Draw one random how-to query over ``n_attributes`` update attributes."""
        n_attributes = max(1, min(n_attributes, len(self.update_candidates)))
        chosen: list[str] = []
        while len(chosen) < n_attributes:
            chosen.append(self._pick_attribute(exclude=chosen))
        limits = []
        for attribute in chosen:
            observed = self._observed(attribute)
            if observed.size:
                limits.append(
                    LimitConstraint(
                        attribute,
                        lower=float(observed.min()),
                        upper=float(observed.max()),
                    )
                )
        return HowToQuery(
            use=self.use,
            update_attributes=chosen,
            objective_attribute=self.output_attribute,
            objective_aggregate=aggregate,
            maximize=maximize,
            limits=limits,
            candidate_buckets=candidate_buckets,
            candidate_multipliers=(),
            name=f"workload-howto-{'-'.join(chosen)}",
        )

    def what_if_batch(self, n_queries: int, **kwargs) -> list[WhatIfQuery]:
        """A reproducible batch of what-if queries (e.g. the paper's "five queries")."""
        return [self.what_if(**kwargs) for _ in range(n_queries)]

    def how_to_batch(self, n_queries: int, **kwargs) -> list[HowToQuery]:
        return [self.how_to(**kwargs) for _ in range(n_queries)]
