"""How-to query evaluation (Section 4).

A how-to query optimises over the space of *candidate what-if queries*
(Definition 7): each candidate picks, for every attribute listed in
``HowToUpdate``, either "no change" or one admissible update value, subject to
the ``Limit`` constraints.  HypeR formulates this search as a 0/1 integer
program (Section 4.3), whose size a result reports:

* one indicator variable per (attribute, candidate update value);
* an at-most-one constraint per attribute, plus an optional global budget;
* a linearised objective whose coefficient for an indicator is the estimated
  effect of applying that single update, obtained from the same
  backdoor-adjusted regression the what-if engine uses — the regression is
  trained **once** and evaluated for the baseline and the candidates in a
  few stacked kernel calls, which is what makes the IP formulation orders of
  magnitude faster than enumerating candidates (Figure 11b / 12b).

The ``Limit`` constraints filter candidates before the program is formed, so
"at most one per attribute, at most ``max_updates`` in total" is all that
constrains it: a laminar matroid, on which greedy is exact.
:func:`solve_how_to` therefore takes, per attribute, the candidate that most
improves the objective, then the best ``max_updates`` of those; a preferential
query's equality locks on earlier objectives become lexicographic weights for
the same greedy.

The exhaustive Opt-HowTo baseline (evaluate every candidate combination) is
implemented here as well so the benchmarks can compare against it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from ..causal.dag import CausalDAG
from ..exceptions import OptimizationError, QuerySemanticsError
from ..ml.discretize import Discretizer
from ..relational.types import IntegerDomain
from ..optim.model import IntegerProgram, LinearExpression
from ..optim.solution import SolveStatus
from ..relational.aggregates import get_aggregate
from ..relational.columnar import KernelCache
from ..relational.database import Database
from ..relational.predicates import Conjunction
from ..relational.relation import Relation
from .config import EngineConfig
from .estimator import PostUpdateEstimator, build_view_dag
from .queries import HowToQuery, LimitConstraint
from .results import HowToResult
from .updates import AttributeUpdate, MultiplyBy, SetTo, UpdateFunction
from .whatif import (
    PreparedWhatIf,
    WhatIfEngine,
    causal_contribution_rows,
    clause_reads,
    combine_aggregate,
    outcome_attributes,
    validate_query,
    when_scope,
)

#: Candidates one kernel call stacks.  A cold how-to drops its whole working
#: set after each query, and stacking three or more made it hand its heap back
#: and page-fault it in again every time (German-Syn, 8 000 and 20 000 rows,
#: 6-7 candidates: two per call are as fast as one or faster, three or more
#: up to 1.7x slower).
_CANDIDATES_PER_CALL = 2

__all__ = [
    "CandidateUpdate",
    "HowToEngine",
    "PreparedHowTo",
    "build_howto_program",
    "prepare_candidates",
    "solve_how_to",
]


@dataclass(frozen=True)
class CandidateUpdate:
    """One admissible update of one attribute, as entered into the IP."""

    attribute: str
    function: UpdateFunction
    label: str

    def as_attribute_update(self) -> AttributeUpdate:
        return AttributeUpdate(self.attribute, self.function)


@dataclass
class PreparedHowTo:
    """State reused across all candidate evaluations of one how-to query.

    Built by :meth:`HowToEngine.prepare`; the service layer caches the
    contained estimator by plan fingerprint and injects it into fresh
    preparations of structurally identical queries.
    """

    #: what every candidate what-if of the query shares: view, DAG projection,
    #: scope, disjuncts, the plan's (or a per-query) kernel cache
    what_if: PreparedWhatIf
    estimator: PostUpdateEstimator
    aggregate_name: str

    @property
    def view(self) -> Relation:
        return self.what_if.view

    @property
    def scope_mask(self) -> np.ndarray:
        return self.what_if.scope_mask


# -- pure evaluation phases ----------------------------------------------------------
#
# A candidate is evaluated by the what-if engine's own kernel
# (:func:`repro.core.whatif.causal_contribution_rows`) with the candidate's
# update functions, and folded by the what-if engine's own reduction, so a
# how-to value equals the answer to its candidate what-if query (Definition 7)
# bit for bit.


def prepare_candidates(
    query: HowToQuery,
    view: Relation,
    view_dag: CausalDAG | None,
    disjuncts: Sequence[Conjunction],
    kernels: KernelCache | None,
) -> PreparedWhatIf:
    """The prepared what-if every candidate of ``query`` shares, over ``view``.

    Candidates differ in their update functions only, which the kernel
    takes per call.
    """
    return PreparedWhatIf(
        view=view,
        view_dag=view_dag,
        scope_mask=when_scope(query, view, kernels),
        disjuncts=list(disjuncts),
        post_attributes=outcome_attributes(query, disjuncts),
        # a how-to reports no per-block summary
        block_of_row=np.empty(0, dtype=int),
        n_blocks=0,
        for_key=query.for_clause.canonical(),
        kernels=kernels,
        when_reads=clause_reads(query.when),
        for_reads=clause_reads(query.for_clause),
    )


def build_howto_program(
    query: HowToQuery,
    candidates: Sequence[CandidateUpdate],
    coefficients: dict[CandidateUpdate, float],
    baseline: float,
) -> tuple[IntegerProgram, dict[CandidateUpdate, str]]:
    """The 0/1 integer program of Section 4.3 for a coefficient assignment."""
    program = IntegerProgram(name=f"howto:{query.name}")
    variable_of: dict[CandidateUpdate, str] = {}
    for index, candidate in enumerate(candidates):
        name = f"u{index}_{candidate.attribute}"
        program.add_binary(name)
        variable_of[candidate] = name
    for attribute in query.update_attributes:
        terms = {
            variable_of[c]: 1.0 for c in candidates if c.attribute == attribute
        }
        if terms:
            program.add_constraint(terms, "<=", 1.0, name=f"at-most-one:{attribute}")
    if query.max_updates is not None:
        program.add_constraint(
            {variable_of[c]: 1.0 for c in candidates},
            "<=",
            float(query.max_updates),
            name="budget",
        )
    objective = LinearExpression(
        {variable_of[c]: coefficients[c] for c in candidates}, baseline
    )
    program.set_objective(objective, maximize=query.maximize)
    return program, variable_of


def solve_how_to(
    query: HowToQuery,
    candidates: Sequence[CandidateUpdate],
    baseline: float,
    coefficients: dict[CandidateUpdate, float],
    *,
    verify: Callable[[list[CandidateUpdate]], float] | None = None,
    locked: Sequence[tuple[dict[CandidateUpdate, float], bool]] = (),
    metadata: dict[str, Any] | None = None,
) -> HowToResult:
    """Choose the plan that is optimal for the Section 4.3 program, by greedy.

    The one solve behind :meth:`HowToEngine.evaluate` and
    :meth:`HowToEngine.evaluate_preferential`; ``verify`` re-evaluates the
    *combined* chosen candidates (``None`` skips that).
    ``locked`` holds the earlier objectives of a preferential query, each a
    ``(coefficients, maximize)``: a candidate's weight is its coefficient in
    every stage so far, signed by that stage's direction, compared
    lexicographically — the order the program's equality locks impose.  Per
    attribute the first candidate of largest positive weight is kept; the
    budget keeps the heaviest of those, ties in candidate order.  The program
    itself is not built; its size is reported as
    :func:`build_howto_program` would build it.  The caller stamps
    ``runtime_seconds``.
    """
    stages = [*locked, (coefficients, query.maximize)]
    zero = (0.0,) * len(stages)
    best: dict[str, tuple[tuple[float, ...], int]] = {}
    for index, candidate in enumerate(candidates):
        weight = tuple(
            stage.get(candidate, 0.0) * (1.0 if maximize else -1.0)
            for stage, maximize in stages
        )
        if weight > best.get(candidate.attribute, (zero,))[0]:
            best[candidate.attribute] = (weight, index)
    # heaviest first; an equal weight keeps candidate order
    picks = sorted(best.values(), key=lambda pick: (pick[0], -pick[1]), reverse=True)
    kept = {index for _weight, index in picks[: query.max_updates]}
    chosen = [candidate for index, candidate in enumerate(candidates) if index in kept]
    # the program's objective as LinearExpression.evaluate sums it: one term
    # per distinct candidate, in candidate order
    objective = baseline
    for candidate in dict.fromkeys(candidates):
        objective += coefficients[candidate] * (1.0 if candidate in chosen else 0.0)
    per_attribute = {attribute: "no change" for attribute in query.update_attributes}
    for candidate in chosen:
        per_attribute[candidate.attribute] = candidate.label
    return HowToResult(
        recommended_updates=[c.as_attribute_update() for c in chosen],
        objective_value=float(objective),
        baseline_value=baseline,
        maximize=query.maximize,
        verified_value=verify(chosen) if verify is not None and chosen else None,
        per_attribute_choices=per_attribute,
        n_candidates=len(candidates),
        n_ip_variables=len(candidates),
        n_ip_constraints=len({c.attribute for c in candidates})
        + (query.max_updates is not None)
        + len(locked),
        solver_status=SolveStatus.OPTIMAL.value,
        metadata=metadata or {},
    )


def _present_values(column: np.ndarray, numeric: bool) -> tuple[np.ndarray, np.ndarray]:
    """``column`` and its not-``None`` mask; numeric columns holding ``None`` become
    float64 (``None`` as NaN, masked out) so they take the array path too."""
    if column.dtype != object:
        return column, np.ones(len(column), dtype=bool)
    present = np.fromiter((v is not None for v in column.tolist()), dtype=bool, count=len(column))
    if numeric:
        try:
            numbers = np.full(len(column), np.nan)
            numbers[present] = column[present].astype(float)
            return numbers, present
        except (TypeError, ValueError):
            pass  # mixed content: keep the objects, admissibility goes value by value
    return column, present


@dataclass
class HowToEngine:
    """Evaluates :class:`HowToQuery` objects."""

    database: Database
    causal_dag: CausalDAG | None = None
    config: EngineConfig = field(default_factory=EngineConfig)

    # -- public API ---------------------------------------------------------------------

    def evaluate(
        self,
        query: HowToQuery,
        *,
        prepared: PreparedHowTo | None = None,
        candidates: Sequence[CandidateUpdate] | None = None,
    ) -> HowToResult:
        """Solve ``query`` with the IP formulation and return the recommended plan.

        ``prepared`` / ``candidates`` inject reusable state from
        :meth:`prepare` / :meth:`enumerate_candidates` (the service layer
        caches both); omitted pieces are built fresh.
        """
        started = time.perf_counter()
        shared = prepared if prepared is not None else self.prepare(query)
        if candidates is None:
            candidates = self.enumerate_candidates(query, shared.view, shared.scope_mask)
        baseline, coefficients = self._candidate_coefficients(query, shared, candidates)
        result = solve_how_to(
            query,
            candidates,
            baseline,
            coefficients,
            verify=partial(self._candidate_value, query, shared),
            metadata={"backdoor_set": list(shared.estimator.backdoor_set)},
        )
        result.runtime_seconds = time.perf_counter() - started
        return result

    def evaluate_exhaustive(
        self,
        query: HowToQuery,
        *,
        max_combinations: int = 200_000,
        prepared: PreparedHowTo | None = None,
        candidates: Sequence[CandidateUpdate] | None = None,
    ) -> HowToResult:
        """Opt-HowTo baseline: enumerate every candidate combination (Definition 8)."""
        started = time.perf_counter()
        shared = prepared if prepared is not None else self.prepare(query)
        if candidates is None:
            candidates = self.enumerate_candidates(query, shared.view, shared.scope_mask)
        baseline = self._candidate_value(query, shared, [])
        per_attribute: dict[str, list[CandidateUpdate | None]] = {
            attribute: [None] for attribute in query.update_attributes
        }
        for candidate in candidates:
            per_attribute[candidate.attribute].append(candidate)
        total = int(np.prod([len(v) for v in per_attribute.values()]))
        if total > max_combinations:
            raise OptimizationError(
                f"exhaustive how-to search needs {total} combinations (> {max_combinations})"
            )
        best_value = -np.inf if query.maximize else np.inf
        best_choice: tuple[CandidateUpdate | None, ...] = tuple([None] * len(per_attribute))
        n_evaluated = 0
        for combo in itertools.product(*per_attribute.values()):
            chosen = [c for c in combo if c is not None]
            if query.max_updates is not None and len(chosen) > query.max_updates:
                continue
            value = self._candidate_value(query, shared, chosen)
            n_evaluated += 1
            better = value > best_value if query.maximize else value < best_value
            if better:
                best_value = value
                best_choice = combo
        chosen = [c for c in best_choice if c is not None]
        recommended = [c.as_attribute_update() for c in chosen]
        per_attr_labels = {attribute: "no change" for attribute in query.update_attributes}
        for candidate in chosen:
            per_attr_labels[candidate.attribute] = candidate.label
        return HowToResult(
            recommended_updates=recommended,
            objective_value=float(best_value),
            baseline_value=baseline,
            maximize=query.maximize,
            verified_value=float(best_value),
            per_attribute_choices=per_attr_labels,
            n_candidates=len(candidates),
            n_ip_variables=0,
            n_ip_constraints=0,
            solver_status=SolveStatus.OPTIMAL.value,
            runtime_seconds=time.perf_counter() - started,
            metadata={"n_combinations_evaluated": n_evaluated, "method": "opt-howto"},
        )

    def evaluate_preferential(self, queries: Sequence[HowToQuery]) -> list[HowToResult]:
        """Lexicographic multi-objective optimisation (Section 4.3 extension).

        ``queries`` share the same ``Use`` / ``When`` / ``HowToUpdate`` / ``Limit``
        structure and differ only in their objective; earlier entries are more
        important.  Each stage keeps the previously attained objective values
        (the program's equality locks) while optimising the next one, which
        :func:`solve_how_to` does by lexicographic weights.
        """
        if not queries:
            raise QuerySemanticsError("evaluate_preferential needs at least one query")
        primary = queries[0]
        shared = self.prepare(primary)
        candidates = self.enumerate_candidates(primary, shared.view, shared.scope_mask)
        results: list[HowToResult] = []
        locked: list[tuple[dict[CandidateUpdate, float], bool]] = []
        for stage, query in enumerate(queries):
            started = time.perf_counter()
            stage_shared = shared if stage == 0 else self.prepare(query)
            baseline, coefficients = self._candidate_coefficients(query, stage_shared, candidates)
            result = solve_how_to(
                query,
                candidates,
                baseline,
                coefficients,
                locked=locked,
                metadata={"stage": stage},
            )
            result.runtime_seconds = time.perf_counter() - started
            results.append(result)
            locked.append((coefficients, query.maximize))
        return results

    # -- preparation -----------------------------------------------------------------------

    def prepare(
        self,
        query: HowToQuery,
        *,
        view: Relation | None = None,
        estimator: PostUpdateEstimator | None = None,
        view_dag: CausalDAG | None = None,
        kernels: KernelCache | None = None,
    ) -> PreparedHowTo:
        """Derive the state shared by every candidate evaluation of ``query``.

        ``view`` may inject a cached relevant view, ``view_dag`` the matching
        DAG projection, ``estimator`` a cached
        :class:`PostUpdateEstimator` built for a structurally identical query
        (same view, DAG projection, update/outcome attributes and config), and
        ``kernels`` the plan's shared
        :class:`~repro.relational.columnar.KernelCache` (as for
        :meth:`WhatIfEngine.prepare`: the candidates then reuse the masks and
        output columns the plan's what-ifs built); the service layer supplies
        all four from its caches.  Without
        ``kernels`` the candidates share a cache of their own.
        """
        if view is None:
            view = query.use.build(self.database)
        if view_dag is None:
            view_dag = build_view_dag(self.causal_dag, query.use, self.database)
        disjuncts = validate_query(query, view, view_dag)
        if estimator is None:
            estimator = self.build_estimator(query, view=view, view_dag=view_dag)
        return PreparedHowTo(
            what_if=prepare_candidates(
                query, view, view_dag, disjuncts, KernelCache() if kernels is None else kernels
            ),
            estimator=estimator,
            aggregate_name=get_aggregate(query.objective_aggregate).name,
        )

    def build_estimator(
        self,
        query: HowToQuery,
        *,
        view: Relation | None = None,
        view_dag: CausalDAG | None = None,
        kernels: KernelCache | None = None,
    ) -> PostUpdateEstimator:
        """The backdoor-adjusted estimator for ``query`` (reusable across queries).

        The one :meth:`WhatIfEngine.build_estimator` builds for a what-if of
        the same structure — it depends only on the view, the DAG projection,
        the update/outcome attributes and the engine config — so the service
        layer's fingerprint-keyed cache shares it between both query kinds.
        """
        return WhatIfEngine(self.database, self.causal_dag, self.config).build_estimator(
            query, view=view, view_dag=view_dag, kernels=kernels
        )

    # -- candidate enumeration ---------------------------------------------------------------

    def enumerate_candidates(
        self, query: HowToQuery, view: Relation, scope_mask: np.ndarray
    ) -> list[CandidateUpdate]:
        """Admissible candidate updates per attribute (the sets ``S_{B_i}`` of Sec. 4.3)."""
        candidates: list[CandidateUpdate] = []
        scope = np.asarray(scope_mask, dtype=bool)
        for attribute in query.update_attributes:
            domain = view.schema.domain(attribute)
            column, present = _present_values(view.column_view(attribute), domain.is_numeric)
            pre_values = column[scope & present]
            values: list[Any] = []
            limits = query.limits_for(attribute)
            allowed = None
            lower = upper = None
            for limit in limits:
                if limit.allowed_values is not None:
                    allowed = list(limit.allowed_values)
                if limit.lower is not None:
                    lower = limit.lower if lower is None else max(lower, limit.lower)
                if limit.upper is not None:
                    upper = limit.upper if upper is None else min(upper, limit.upper)
            if allowed is not None:
                values = list(allowed)
            elif domain.is_numeric:
                observed = column[present].astype(float)
                observed = observed[~np.isnan(observed)]
                low, high = lower, upper
                if low is None:
                    low = float(observed.min()) if observed.size else 0.0
                if high is None:
                    high = float(observed.max()) if observed.size else 1.0
                if high <= low:
                    high = low + 1.0
                discretizer = Discretizer(n_buckets=query.candidate_buckets).fit([low, high])
                values = list(discretizer.bucket_centers())
                if isinstance(domain, IntegerDomain):
                    values = sorted({int(round(v)) for v in values})
            else:  # a categorical or boolean domain: finite
                values = list(domain.values())

            for value in values:
                if not domain.contains(value):
                    continue  # e.g. a Limit "In" list mentioning a value outside the domain
                function: UpdateFunction = SetTo(value)
                if self._admissible(limits, pre_values, function):
                    candidates.append(
                        CandidateUpdate(attribute, function, f"= {self._fmt(value)}")
                    )
            if domain.is_numeric:
                for factor in query.candidate_multipliers:
                    function = MultiplyBy(factor)
                    if self._admissible(limits, pre_values, function):
                        candidates.append(
                            CandidateUpdate(attribute, function, f"{factor}x Pre({attribute})")
                        )
        if not candidates:
            raise OptimizationError(
                "no admissible candidate updates; relax the Limit constraints"
            )
        return candidates

    @staticmethod
    def _admissible(
        limits: Sequence[LimitConstraint], pre_values: np.ndarray, function: UpdateFunction
    ) -> bool:
        """Whether every limit admits ``function`` on every (non-null) scope pre-value.

        Numeric pre-values are tested a column at a time; each test is phrased
        as "no row violates", so a NaN row passes the range and L1 limits and
        fails a permissible-values list exactly as ``LimitConstraint.admits``
        decides for it.  Anything else depends on the row only through its
        pre-value, so the distinct pre-values go through ``admits``.
        """
        if not limits or not len(pre_values):
            return True
        post = None
        if pre_values.dtype.kind == "f":
            post = function.apply_vectorized(pre_values)
        if post is None:
            return all(
                limit.admits(pre, function.apply(pre))
                for pre in set(pre_values.tolist())
                for limit in limits
            )
        for limit in limits:
            if limit.allowed_values is not None:
                numbers = [
                    v for v in limit.allowed_values if isinstance(v, (int, float, np.number))
                ]
                if not np.isin(post, np.asarray(numbers, dtype=float)).all():
                    return False
            if limit.lower is not None and (post < limit.lower).any():
                return False
            if limit.upper is not None and (post > limit.upper).any():
                return False
            if limit.max_l1 is not None and (np.abs(post - pre_values) > limit.max_l1).any():
                return False
        return True

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    # -- candidate evaluation -------------------------------------------------------------------

    def _candidate_value(
        self,
        query: HowToQuery,
        shared: PreparedHowTo,
        chosen: Sequence[CandidateUpdate],
    ) -> float:
        """Estimated objective value when ``chosen`` (possibly nothing) is applied:
        the answer to that candidate what-if query."""
        return self._candidate_values(query, shared, [chosen])[0]

    def _candidate_values(
        self,
        query: HowToQuery,
        shared: PreparedHowTo,
        choices: Sequence[Sequence[CandidateUpdate]],
    ) -> list[float]:
        """:meth:`_candidate_value` of each of ``choices``, stacked in kernel calls."""
        sets = [[c.as_attribute_update() for c in chosen] for chosen in choices]
        step = _CANDIDATES_PER_CALL
        return [
            combine_aggregate(shared.aggregate_name, contributions)[0]
            for start in range(0, len(sets), step)
            for contributions in causal_contribution_rows(
                query, shared.what_if, shared.estimator, sets[start : start + step]
            )
        ]

    def _candidate_coefficients(
        self,
        query: HowToQuery,
        shared: PreparedHowTo,
        candidates: Sequence[CandidateUpdate],
    ) -> tuple[float, dict[CandidateUpdate, float]]:
        """The baseline and each candidate's value minus it, from stacked kernel calls."""
        baseline, *values = self._candidate_values(
            query, shared, [[], *([candidate] for candidate in candidates)]
        )
        return baseline, {
            candidate: value - baseline for candidate, value in zip(candidates, values)
        }
