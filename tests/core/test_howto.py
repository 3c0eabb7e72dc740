"""Tests for how-to query evaluation (IP formulation + baselines)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Database, HypeRService, Relation
from repro.core import (
    EngineConfig,
    HowToEngine,
    HowToQuery,
    LimitConstraint,
    SetTo,
    WhatIfEngine,
)
from repro.core.howto import CandidateUpdate
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn, make_student_syn
from repro.exceptions import OptimizationError, QuerySemanticsError
from repro.ml.discretize import Discretizer
from repro.relational import (
    TRUE,
    CategoricalDomain,
    IntegerDomain,
    NumericDomain,
    RelationSchema,
    UseSpec,
    post,
    pre,
)
from repro.shard import ShardPool, partition_database

from . import oracles
from .linear_fixture import make_linear_dataset


@pytest.fixture(scope="module")
def linear_world():
    database, dag, scm, use, columns = make_linear_dataset(n=900, seed=5)
    return database, dag, use


@pytest.fixture(scope="module")
def engine(linear_world):
    database, dag, _ = linear_world
    return HowToEngine(database, dag, EngineConfig(regressor="linear"))


def base_query(use, **kwargs):
    defaults = dict(
        use=use,
        update_attributes=["B"],
        objective_attribute="Y",
        objective_aggregate="avg",
        limits=[LimitConstraint("B", lower=0.0, upper=10.0)],
        candidate_buckets=5,
        candidate_multipliers=(),
    )
    defaults.update(kwargs)
    return HowToQuery(**defaults)


class TestCandidateEnumeration:
    def test_candidates_respect_range_limits(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(use, limits=[LimitConstraint("B", lower=2.0, upper=4.0)])
        view = query.use.build(engine.database)
        candidates = engine.enumerate_candidates(query, view, [True] * len(view))
        values = [c.function.value for c in candidates if isinstance(c.function, SetTo)]
        assert values and all(2.0 <= v <= 4.0 for v in values)

    def test_allowed_values_limit(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(
            use, limits=[LimitConstraint("B", allowed_values=(1.0, 2.0, 3.0))]
        )
        view = query.use.build(engine.database)
        candidates = engine.enumerate_candidates(query, view, [True] * len(view))
        assert {c.function.value for c in candidates} == {1.0, 2.0, 3.0}

    def test_l1_limit_filters_multipliers(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(
            use,
            limits=[LimitConstraint("B", max_l1=0.5)],
            candidate_multipliers=(1.01, 5.0),
        )
        view = query.use.build(engine.database)
        candidates = engine.enumerate_candidates(query, view, [True] * len(view))
        multipliers = [c.function.factor for c in candidates if isinstance(c.function, MultiplyBy)]
        # a 1% nudge stays within the L1 budget for every tuple, a 5x change does not
        assert multipliers == [1.01]

    def test_impossible_limits_raise(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(
            use, limits=[LimitConstraint("B", allowed_values=("impossible",))]
        )
        with pytest.raises(OptimizationError, match="no admissible"):
            engine.evaluate(query)

    def test_candidate_update_wrapper(self):
        candidate = CandidateUpdate("B", SetTo(3.0), "= 3")
        update = candidate.as_attribute_update()
        assert update.attribute == "B" and update.function.value == 3.0


# -- enumerate_candidates against the per-row reference it was vectorised from ---------


def reference_candidates(engine, query, view, scope_mask):
    """``enumerate_candidates`` as it was: ``query.admits`` once per row per candidate."""
    candidates = []
    scope_rows = np.flatnonzero(np.asarray(scope_mask, dtype=bool))
    for attribute in query.update_attributes:
        pre_values = [view.column_view(attribute)[i] for i in scope_rows]
        domain = view.schema.domain(attribute)
        allowed = lower = upper = None
        for limit in query.limits_for(attribute):
            if limit.allowed_values is not None:
                allowed = list(limit.allowed_values)
            if limit.lower is not None:
                lower = limit.lower if lower is None else max(lower, limit.lower)
            if limit.upper is not None:
                upper = limit.upper if upper is None else min(upper, limit.upper)
        if allowed is not None:
            values = list(allowed)
        elif domain.is_numeric:
            observed = [float(v) for v in view.column_view(attribute) if v is not None]
            low = lower if lower is not None else (min(observed) if observed else 0.0)
            high = upper if upper is not None else (max(observed) if observed else 1.0)
            if high <= low:
                high = low + 1.0
            values = list(
                Discretizer(n_buckets=max(1, query.candidate_buckets))
                .fit([low, high])
                .bucket_centers()
            )
            if isinstance(domain, IntegerDomain):
                values = sorted({int(round(v)) for v in values})
        else:
            values = list(domain.values()) if domain.is_finite else sorted(
                {v for v in view.column_view(attribute) if v is not None}
            )

        def admissible(function):
            return all(
                query.admits(attribute, pre, function.apply(pre))
                for pre in pre_values
                if pre is not None
            )

        for value in values:
            if domain.contains(value) and admissible(SetTo(value)):
                candidates.append(
                    CandidateUpdate(attribute, SetTo(value), f"= {engine._fmt(value)}")
                )
        if domain.is_numeric:
            for factor in query.candidate_multipliers:
                if admissible(MultiplyBy(factor)):
                    label = f"{factor}x Pre({attribute})"
                    candidates.append(CandidateUpdate(attribute, MultiplyBy(factor), label))
    if not candidates:
        raise OptimizationError("no admissible candidate updates")
    return candidates


@pytest.fixture(scope="module")
def mixed_view():
    """One relation with every column shape ``enumerate_candidates`` must read."""
    rng = np.random.default_rng(3)
    n = 60
    real = np.round(rng.uniform(1.0, 9.0, n), 3)
    with_nan = real.copy()
    with_nan[[7, 20, 41]] = np.nan  # not the first row: see the leading-NaN test
    columns = {
        "ID": list(range(n)),
        "F": real.tolist(),
        "I": rng.integers(1, 9, n).tolist(),
        "N": [None if i % 7 == 3 else float(v) for i, v in enumerate(real)],
        "Q": with_nan,
        "Z": np.where(np.isnan(with_nan), np.nan, np.floor(with_nan)),
        "K": [None if i % 11 == 5 else "abc"[i % 3] for i in range(n)],
        "Y": rng.uniform(0.0, 1.0, n).tolist(),
    }
    domains = {
        "F": NumericDomain(0.0, 20.0),
        "I": IntegerDomain(0, 20),
        "N": NumericDomain(0.0, 20.0),
        "Q": NumericDomain(0.0, 20.0),
        "Z": IntegerDomain(0, 20),
        "K": CategoricalDomain(["a", "b", "c"]),
    }
    schema = RelationSchema.from_columns("T", columns, key=["ID"], domains=domains)
    return Relation(schema, columns, validate=False)  # NaN is outside every domain


PARITY_LIMITS = {
    "none": lambda a: [],
    "range": lambda a: [LimitConstraint(a, lower=2.0, upper=6.0)],
    "lower-only": lambda a: [LimitConstraint(a, lower=3)],
    "allowed": lambda a: [LimitConstraint(a, allowed_values=(2.0, 4, 5.5, "a", "x"))],
    # every integer: ``1.0x Pre`` is admissible on I, and on Z but for its NaN rows
    "allowed-all": lambda a: [LimitConstraint(a, allowed_values=tuple(range(21)))],
    "l1": lambda a: [LimitConstraint(a, max_l1=1.5)],
    "range+l1": lambda a: [LimitConstraint(a, lower=1.0, upper=8.0, max_l1=3.0)],
    "two-limits": lambda a: [
        LimitConstraint(a, lower=2.0),
        LimitConstraint(a, upper=7.0, max_l1=4.0),
    ],
    "allowed+range": lambda a: [LimitConstraint(a, allowed_values=(1.0, 3.0, 9.0), upper=5.0)],
}


class TestCandidateParity:
    """Same ``CandidateUpdate`` list — order and labels included — as the per-row reference."""

    @staticmethod
    def both(view, query, scope):
        engine = HowToEngine(Database([view]), None, EngineConfig(regressor="linear"))
        outcomes = []
        for enumerate_ in (
            lambda: engine.enumerate_candidates(query, view, scope),
            lambda: reference_candidates(engine, query, view, scope),
        ):
            try:
                outcomes.append(enumerate_())
            except OptimizationError:
                outcomes.append("no admissible candidates")
        return outcomes

    @pytest.mark.parametrize("limits", PARITY_LIMITS)
    @pytest.mark.parametrize("attribute", ["F", "I", "N", "Q", "Z", "K"])
    @pytest.mark.parametrize("scope", ["all", "some", "list", "empty"])
    def test_equals_the_per_row_reference(self, mixed_view, attribute, limits, scope):
        n = len(mixed_view)
        scope_mask = {
            "all": np.ones(n, dtype=bool),
            "some": np.arange(n) % 3 != 0,
            "list": [i % 2 == 0 for i in range(n)],  # the existing tests pass lists
            "empty": np.zeros(n, dtype=bool),
        }[scope]
        query = HowToQuery(
            use=UseSpec("T"),
            update_attributes=[attribute],
            objective_attribute="Y",
            limits=PARITY_LIMITS[limits](attribute),
            candidate_buckets=5,
            candidate_multipliers=(0.5, 0.9, 1.0, 1.1, 2.0),
        )
        got, want = self.both(mixed_view, query, scope_mask)
        assert got == want
        if got != "no admissible candidates":
            assert [c.label for c in got] == [c.label for c in want]

    def test_several_attributes_keep_their_order(self, mixed_view):
        query = HowToQuery(
            use=UseSpec("T"),
            update_attributes=["K", "I", "F"],
            objective_attribute="Y",
            limits=[LimitConstraint("F", lower=2.0, upper=6.0), LimitConstraint("I", max_l1=2)],
        )
        got, want = self.both(mixed_view, query, np.ones(len(mixed_view), dtype=bool))
        assert got == want and [c.attribute for c in got] == sorted(
            (c.attribute for c in got), key=["K", "I", "F"].index
        )

    def test_l1_on_a_categorical_attribute_goes_value_by_value(self, mixed_view):
        # float("a") fails inside LimitConstraint.admits: nothing is admissible,
        # exactly as the per-row loop decided, without a per-row loop
        query = HowToQuery(
            use=UseSpec("T"),
            update_attributes=["K"],
            objective_attribute="Y",
            limits=[LimitConstraint("K", max_l1=1.0)],
        )
        got, want = self.both(mixed_view, query, np.ones(len(mixed_view), dtype=bool))
        assert got == want == "no admissible candidates"

    def test_leading_nan_no_longer_poisons_the_bucket_range(self, mixed_view):
        """The one deliberate difference: Python's ``min`` keeps a NaN it meets
        first, so a NaN in row 0 used to turn the bucket range (and every
        ``= value`` candidate) into NaN; NaN is now ignored wherever it sits."""
        moved = np.roll(mixed_view.column_view("Q"), -7)  # the NaN of row 7 leads
        assert np.isnan(moved[0])
        view = mixed_view.with_column("Q", moved, domain=NumericDomain(0.0, 20.0))
        query = HowToQuery(
            use=UseSpec("T"), update_attributes=["Q"], objective_attribute="Y",
            candidate_multipliers=(),
        )
        scope = np.ones(len(view), dtype=bool)
        engine = HowToEngine(Database([view]), None, EngineConfig(regressor="linear"))
        got = engine.enumerate_candidates(query, view, scope)
        unmoved = engine.enumerate_candidates(query, mixed_view, scope)
        assert got == unmoved and len(got) == query.candidate_buckets
        with pytest.raises(OptimizationError):
            reference_candidates(engine, query, view, scope)


class TestIPHowTo:
    def test_maximisation_picks_largest_admissible_value(self, engine, linear_world):
        """Y increases in B, so the best single update is the top of the range."""
        _, _, use = linear_world
        result = engine.evaluate(base_query(use))
        assert len(result.recommended_updates) == 1
        chosen = result.recommended_updates[0]
        assert chosen.attribute == "B"
        assert chosen.function.value == pytest.approx(9.0, abs=1.01)
        assert result.objective_value > result.baseline_value
        assert result.solver_status == "optimal"

    def test_minimisation_picks_smallest_value(self, engine, linear_world):
        _, _, use = linear_world
        result = engine.evaluate(base_query(use, maximize=False))
        chosen = result.recommended_updates[0]
        assert chosen.function.value == pytest.approx(1.0, abs=1.01)
        assert result.objective_value < result.baseline_value

    def test_verified_value_close_to_ip_objective(self, engine, linear_world):
        _, _, use = linear_world
        result = engine.evaluate(base_query(use))
        assert result.verified_value == pytest.approx(result.objective_value, rel=0.05)

    def test_budget_constraint_limits_updates(self, linear_world):
        database, dag, use = linear_world
        engine = HowToEngine(database, dag, EngineConfig(regressor="linear"))
        query = HowToQuery(
            use=use,
            update_attributes=["B"],
            objective_attribute="Y",
            objective_aggregate="avg",
            limits=[LimitConstraint("B", lower=0.0, upper=10.0)],
            max_updates=1,
            candidate_buckets=4,
            candidate_multipliers=(),
        )
        result = engine.evaluate(query)
        assert len(result.recommended_updates) <= 1

    def test_plan_reports_no_change_for_unused_attributes(self, small_german, fast_config):
        engine = HowToEngine(small_german.database, small_german.causal_dag, fast_config)
        query = HowToQuery(
            use=small_german.default_use,
            update_attributes=["Status", "Housing"],
            objective_attribute="Credit",
            objective_aggregate="count",
            for_clause=(post("Credit") == 1),
            max_updates=1,
            candidate_buckets=3,
            candidate_multipliers=(),
        )
        result = engine.evaluate(query)
        plan = result.plan()
        assert set(plan) == {"Status", "Housing"}
        assert sum(1 for v in plan.values() if v != "no change") <= 1

    def test_when_scope_respected(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(use, when=(pre("X") > 5.0))
        result = engine.evaluate(query)
        # updating only the high-X half still helps, but less than updating everyone
        full = engine.evaluate(base_query(use))
        assert result.objective_value <= full.objective_value + 1e-6

    def test_ip_size_reported(self, engine, linear_world):
        _, _, use = linear_world
        result = engine.evaluate(base_query(use, candidate_buckets=4))
        assert result.n_ip_variables == result.n_candidates
        assert result.n_ip_constraints >= 1


class TestExhaustiveBaseline:
    def test_opt_howto_agrees_with_ip_on_single_attribute(self, engine, linear_world):
        _, _, use = linear_world
        query = base_query(use, candidate_buckets=4)
        ip_result = engine.evaluate(query)
        exhaustive = engine.evaluate_exhaustive(query)
        assert exhaustive.metadata["method"] == "opt-howto"
        assert exhaustive.objective_value == pytest.approx(ip_result.objective_value, rel=0.05)
        assert [u.attribute for u in exhaustive.recommended_updates] == [
            u.attribute for u in ip_result.recommended_updates
        ]

    def test_combination_budget_guard(self, small_german, fast_config):
        engine = HowToEngine(small_german.database, small_german.causal_dag, fast_config)
        query = HowToQuery(
            use=small_german.default_use,
            update_attributes=["Status", "Housing", "Savings"],
            objective_attribute="Credit",
            objective_aggregate="count",
            for_clause=(post("Credit") == 1),
            candidate_buckets=6,
        )
        with pytest.raises(OptimizationError, match="combinations"):
            engine.evaluate_exhaustive(query, max_combinations=10)


class TestPreferential:
    def test_lexicographic_objectives(self, linear_world):
        database, dag, use = linear_world
        engine = HowToEngine(database, dag, EngineConfig(regressor="linear"))
        primary = base_query(use, candidate_buckets=4)
        secondary = base_query(use, candidate_buckets=4, maximize=False)
        results = engine.evaluate_preferential([primary, secondary])
        assert len(results) == 2
        # the first stage fixes the primary optimum; the second stage cannot undo it
        assert results[0].objective_value >= results[0].baseline_value
        assert results[1].metadata["stage"] == 1

    def test_empty_query_list_rejected(self, linear_world):
        database, dag, _ = linear_world
        engine = HowToEngine(database, dag, EngineConfig(regressor="linear"))
        with pytest.raises(QuerySemanticsError):
            engine.evaluate_preferential([])


class TestValidation:
    def test_unknown_attribute_rejected(self, engine):
        query = HowToQuery(
            use=UseSpec(base_relation="Obs"),
            update_attributes=["Missing"],
            objective_attribute="Y",
        )
        with pytest.raises(QuerySemanticsError):
            engine.evaluate(query)

    def test_causally_connected_update_attributes_rejected(self, engine):
        query = HowToQuery(
            use=UseSpec(base_relation="Obs"),
            update_attributes=["X", "B"],
            objective_attribute="Y",
        )
        with pytest.raises(QuerySemanticsError, match="causally connected"):
            engine.evaluate(query)


def _eight_disjuncts():
    clause = pre("Age") == 0
    for age in range(1, 8):
        clause = clause | (pre("Age") == age)
    return clause


#: defect -> (HowToQuery overrides, what the shared validator says)
ILL_FORMED = {
    "immutable": (dict(update_attributes=["Age"]), "cannot update immutable attribute 'Age'"),
    "immutable-categorical": (
        dict(update_attributes=["Status", "Sex"]),
        "cannot update immutable attribute 'Sex'",
    ),
    "immutable-key": (dict(update_attributes=["ID"]), "cannot update immutable attribute 'ID'"),
    "unknown": (dict(update_attributes=["Missing"]), "attributes ['Missing'] are not columns"),
    "connected": (
        dict(update_attributes=["Status", "Credit"], objective_attribute="CreditAmount"),
        "updated attributes 'Status' and 'Credit' are causally connected",
    ),
    "disjuncts": (dict(for_clause=_eight_disjuncts()), "expands to 8 disjuncts"),
    "mixed": (
        dict(for_clause=(pre("CreditAmount") - post("CreditAmount")) < 2),
        "mixing Pre and Post",
    ),
}


class TestHowToRejectsWhatWhatIfRejects:
    @pytest.mark.parametrize("defect", list(ILL_FORMED))
    def test_both_engines_raise_the_same_error(self, small_german, defect):
        overrides, message = ILL_FORMED[defect]
        fields = dict(
            use=small_german.default_use,
            update_attributes=["Status"],
            objective_attribute="Credit",
        )
        fields.update(overrides)
        how_to = HowToQuery(**fields)
        what_if = oracles.candidate_what_if(
            how_to, [AttributeUpdate(a, SetTo(1)) for a in how_to.update_attributes]
        )
        config = EngineConfig(regressor="linear")
        engines = (
            (HowToEngine(small_german.database, small_german.causal_dag, config), how_to),
            (WhatIfEngine(small_german.database, small_german.causal_dag, config), what_if),
        )
        raised = []
        for engine, query in engines:
            with pytest.raises(QuerySemanticsError) as caught:
                engine.prepare(query)
            raised.append(str(caught.value))
        assert message in raised[0]
        assert raised[0] == raised[1]

    def test_a_budget_of_one_still_lifts_the_independence_rule(self, small_german):
        query = HowToQuery(
            use=small_german.default_use,
            update_attributes=["Status", "Credit"],
            objective_attribute="CreditAmount",
            max_updates=1,
        )
        config = EngineConfig(regressor="linear")
        HowToEngine(small_german.database, small_german.causal_dag, config).prepare(query)


# -- Definition 7: a how-to candidate is a what-if query ----------------------------------


FOR_SHAPES = {
    "true": TRUE,
    "one": post("Credit") == 1,
    "either": (post("Credit") == 1) | (post("Credit") == 0),
    "three": (post("Credit") == 1)
    | ((pre("Age") >= 40) & (post("Credit") == 0))
    | (pre("Housing") >= 2),
}
SHARD_SHAPES = ["true", "either", "three"]


@pytest.fixture(scope="module")
def german():
    return make_german_syn(4000, seed=0)


@pytest.fixture(scope="module")
def student():
    return make_student_syn(300, seed=0)


def small_config(regressor):
    return EngineConfig(regressor=regressor, n_forest_trees=3, max_tree_depth=3)


def german_how_to(german, attributes, aggregate, shape, when=TRUE):
    return HowToQuery(
        use=german.default_use,
        update_attributes=list(attributes),
        objective_attribute="Credit",
        objective_aggregate=aggregate,
        when=when,
        for_clause=FOR_SHAPES[shape],
        candidate_buckets=3,
        candidate_multipliers=(1.1,),
    )


def candidate_what_if(query, chosen):
    """``query``'s candidate what-if for ``chosen``; an attribute left alone is
    multiplied by one, so the what-if trains on the how-to's features."""
    function_of = {c.attribute: c.function for c in chosen}
    return oracles.candidate_what_if(
        query,
        [
            AttributeUpdate(a, function_of.get(a, MultiplyBy(1.0)))
            for a in query.update_attributes
        ],
    )


class TestCandidateIsAWhatIf:
    """The how-to engine's value of a candidate is the what-if engine's answer
    to that candidate what-if query: ``==``, no tolerance."""

    def assert_every_candidate_is_a_what_if(self, dataset, query, config, inject):
        how_to = HowToEngine(dataset.database, dataset.causal_dag, config)
        what_if = WhatIfEngine(dataset.database, dataset.causal_dag, config)
        shared = how_to.prepare(query)
        candidates = how_to.enumerate_candidates(query, shared.view, shared.scope_mask)
        result = how_to.evaluate(query, prepared=shared, candidates=candidates)
        # a forest draws per estimator: the what-if then reads the how-to's own
        estimator = shared.estimator if inject else None

        def answer(chosen):
            return what_if.evaluate(
                candidate_what_if(query, chosen), estimator=estimator
            ).value

        assert result.baseline_value == answer([])
        for candidate in candidates:
            assert how_to._candidate_value(query, shared, [candidate]) == answer([candidate])
        # combinations: one candidate per attribute, and the plan the IP verified
        combination = list({c.attribute: c for c in candidates}.values())
        assert how_to._candidate_value(query, shared, combination) == answer(combination)
        if result.recommended_updates:
            chosen = [
                c for c in candidates if c.as_attribute_update() in result.recommended_updates
            ]
            assert result.verified_value == answer(chosen)

    @pytest.mark.parametrize("shape", list(FOR_SHAPES))
    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
    @pytest.mark.parametrize("attributes", [("Status",), ("Status", "Savings")])
    def test_german_linear(self, german, attributes, aggregate, shape):
        query = german_how_to(german, attributes, aggregate, shape)
        self.assert_every_candidate_is_a_what_if(
            german, query, small_config("linear"), inject=False
        )

    @pytest.mark.parametrize("shape", ["one", "three"])
    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
    def test_german_under_a_when_clause(self, german, aggregate, shape):
        # only the tuples in scope are updated: a candidate applies its
        # function at the in-scope rows of each term, its what-if likewise
        query = german_how_to(
            german, ("Status", "Savings"), aggregate, shape, when=pre("Age") >= 35
        )
        self.assert_every_candidate_is_a_what_if(
            german, query, small_config("linear"), inject=False
        )

    @pytest.mark.parametrize("shape", list(FOR_SHAPES))
    @pytest.mark.parametrize("aggregate", ["count", "avg"])
    def test_german_forest(self, german, aggregate, shape):
        query = german_how_to(german, ("Status", "Savings"), aggregate, shape)
        self.assert_every_candidate_is_a_what_if(
            german, query, small_config("forest"), inject=True
        )

    @pytest.mark.parametrize("regressor", ["linear", "forest"])
    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
    @pytest.mark.parametrize("attributes", [("Attendance",), ("Assignment", "Discussion")])
    def test_student(self, student, attributes, aggregate, regressor):
        query = HowToQuery(
            use=student.default_use,
            update_attributes=list(attributes),
            objective_attribute="Grade",
            objective_aggregate=aggregate,
            for_clause=(post("Grade") >= 60.0) | (pre("Age") >= 21),
            candidate_buckets=3,
            candidate_multipliers=(1.1,),
        )
        self.assert_every_candidate_is_a_what_if(
            student, query, small_config(regressor), inject=regressor == "forest"
        )

    @pytest.mark.parametrize("shape", SHARD_SHAPES)
    @pytest.mark.parametrize("aggregate", ["count", "avg"])
    def test_through_the_shard_pool_and_the_service(self, german, aggregate, shape):
        config = small_config("linear")
        query = german_how_to(german, ("Status", "Savings"), aggregate, shape)
        what_if = WhatIfEngine(german.database, german.causal_dag, config)
        unsharded = HowToEngine(german.database, german.causal_dag, config).evaluate(query)

        def answer(chosen):
            return what_if.evaluate(candidate_what_if(query, chosen)).value

        plan = partition_database(german.database, german.causal_dag, 3)
        pool = ShardPool(plan, german.causal_dag, config, inline=True).start()
        service = HypeRService(german.database, german.causal_dag, config)
        try:
            for result in (pool.run_batch([query])[0], service.execute(query)):
                assert result.baseline_value == answer([])
                chosen = result.recommended_updates
                assert result.objective_value == unsharded.objective_value
                assert result.verified_value == (answer(chosen) if chosen else None)
        finally:
            pool.close()
            service.close()


# scipy is not a dependency of the package: with every import of it failing,
# repro still imports and answers how-tos (plain, budgeted and preferential)
WITHOUT_SCIPY = """
import dataclasses
import sys

sys.modules["scipy"] = None  # `import scipy...` now raises ImportError

from repro import HypeR
from repro.core import EngineConfig
from repro.datasets import make_german_syn

german = make_german_syn(600, seed=0)
hyper = HypeR(german.database, german.causal_dag, EngineConfig(regressor="linear"))
query = hyper.parse(
    "USE Credit HOWTOUPDATE Status, Housing LIMIT 1 <= POST(Status) <= 4 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
budgeted = dataclasses.replace(query, max_updates=1)
second = dataclasses.replace(query, objective_aggregate="avg", maximize=False)
stages = hyper.howto_engine.evaluate_preferential([query, second])
results = [hyper.how_to(query), hyper.how_to(budgeted), *stages]
assert all(result.solver_status == "optimal" for result in results)
assert len(results[1].recommended_updates) <= 1
assert stages[0].objective_value == results[0].objective_value
print("answered", len(results))
"""


def test_a_how_to_answers_without_scipy():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "answered 4"
