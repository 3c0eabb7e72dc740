"""Tests for what-if query evaluation (the core of the paper)."""

import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import HypeR, HypeRService
from repro.core import (
    AttributeUpdate,
    EngineConfig,
    MultiplyBy,
    PostUpdateEstimator,
    SetTo,
    Variant,
    WhatIfEngine,
    WhatIfQuery,
)
from repro.core import whatif as whatif_module
from repro.core.results import BlockContribution
from repro.core.whatif import causal_contribution_rows, combine_aggregate, encode_post
from repro.datasets import make_amazon_syn, make_german_syn
from repro.exceptions import QuerySemanticsError
from repro.lang import parse_query
from repro.relational import TRUE, UseSpec, col, post, pre
from repro.relational.columnar import KernelCache, fused_mask_aggregate
from repro.relational.predicates import evaluate_mask

from .linear_fixture import make_linear_dataset, true_mean_y_under_do_b
from .oracles import counterfactual_mean


@pytest.fixture(scope="module")
def linear_world():
    database, dag, scm, use, columns = make_linear_dataset(n=1200, seed=3)
    return database, dag, scm, use, columns


def linear_engine(database, dag, variant=Variant.HYPER, **kwargs):
    config = EngineConfig(regressor="linear", variant=variant, **kwargs)
    return WhatIfEngine(database=database, causal_dag=dag, config=config)


def avg_y_query(use, b_value, for_clause=TRUE, when=TRUE, aggregate="avg"):
    return WhatIfQuery(
        use=use,
        updates=[AttributeUpdate("B", SetTo(b_value))],
        output_attribute="Y",
        output_aggregate=aggregate,
        when=when,
        for_clause=for_clause,
    )


class TestCausalCorrectness:
    def test_average_matches_interventional_truth(self, linear_world):
        database, dag, _, use, columns = linear_world
        engine = linear_engine(database, dag)
        result = engine.evaluate(avg_y_query(use, 5.0))
        truth = true_mean_y_under_do_b(5.0, columns["X"])
        assert result.value == pytest.approx(truth, rel=0.05)
        assert result.backdoor_set == ("X",)
        assert result.n_scope_tuples == len(database["Obs"])

    def test_effect_is_monotone_in_update_value(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        low = engine.evaluate(avg_y_query(use, 1.0)).value
        high = engine.evaluate(avg_y_query(use, 9.0)).value
        assert high - low == pytest.approx(2.0 * 8.0, rel=0.1)

    def test_indep_baseline_ignores_propagation(self, linear_world):
        """Indep keeps Y at its observed value, so the update has no effect at all."""
        database, dag, _, use, _ = linear_world
        indep = linear_engine(database, dag, variant=Variant.INDEP)
        observed_mean = float(
            np.mean(np.asarray(database["Obs"].column_view("Y"), dtype=float))
        )
        result = indep.evaluate(avg_y_query(use, 9.0))
        assert result.value == pytest.approx(observed_mean, rel=1e-6)
        assert result.variant == Variant.INDEP

    def test_hyper_nb_close_to_hyper_here(self, linear_world):
        """With only one covariate the NB variant adjusts for the same set."""
        database, dag, _, use, columns = linear_world
        nb = linear_engine(database, dag, variant=Variant.HYPER_NB)
        truth = true_mean_y_under_do_b(5.0, columns["X"])
        assert nb.evaluate(avg_y_query(use, 5.0)).value == pytest.approx(truth, rel=0.05)

    def test_sampled_variant_close_to_full(self, linear_world):
        database, dag, _, use, _ = linear_world
        full = linear_engine(database, dag)
        sampled = linear_engine(
            database, dag, variant=Variant.HYPER_SAMPLED, sample_size=400
        )
        full_value = full.evaluate(avg_y_query(use, 5.0)).value
        sampled_result = sampled.evaluate(avg_y_query(use, 5.0))
        assert sampled_result.value == pytest.approx(full_value, rel=0.1)
        assert sampled_result.metadata["n_training_rows"] == 400

    def test_multiplicative_update(self, linear_world):
        database, dag, _, use, columns = linear_world
        engine = linear_engine(database, dag)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("B", MultiplyBy(0.0))],
            output_attribute="Y",
            output_aggregate="avg",
        )
        truth = true_mean_y_under_do_b(0.0, columns["X"])
        assert engine.evaluate(query).value == pytest.approx(truth, rel=0.1, abs=0.5)


class TestScopesAndClauses:
    def test_empty_when_scope_equals_observational_value(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = avg_y_query(use, 9.0, when=(pre("X") > 1e9))
        observed_mean = float(
            np.mean(np.asarray(database["Obs"].column_view("Y"), dtype=float))
        )
        result = engine.evaluate(query)
        assert result.n_scope_tuples == 0
        assert result.value == pytest.approx(observed_mean, rel=1e-9)

    def test_when_scope_limits_affected_tuples(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        full = engine.evaluate(avg_y_query(use, 9.0)).value
        partial_result = engine.evaluate(avg_y_query(use, 9.0, when=(pre("X") > 5.0)))
        observed_mean = float(
            np.mean(np.asarray(database["Obs"].column_view("Y"), dtype=float))
        )
        assert 0 < partial_result.n_scope_tuples < len(database["Obs"])
        assert min(observed_mean, full) - 0.5 <= partial_result.value <= max(observed_mean, full) + 0.5

    def test_for_clause_pre_condition_restricts_output(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        result = engine.evaluate(avg_y_query(use, 5.0, for_clause=(pre("X") > 5.0)))
        # only high-X tuples are averaged -> higher value than the overall answer
        overall = engine.evaluate(avg_y_query(use, 5.0)).value
        assert result.value > overall
        assert result.expected_qualifying_count < len(database["Obs"])

    def test_count_with_post_condition_bounded(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = avg_y_query(use, 9.0, for_clause=(post("Y") > 20.0), aggregate="count")
        result = engine.evaluate(query)
        assert 0.0 <= result.value <= len(database["Obs"])
        # pushing B up must raise the share of high-Y tuples vs pushing it down
        low = engine.evaluate(
            avg_y_query(use, 0.5, for_clause=(post("Y") > 20.0), aggregate="count")
        )
        assert result.value > low.value

    def test_disjunctive_for_clause(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        clause = (pre("X") < 2.0) | (pre("X") > 8.0)
        result = engine.evaluate(avg_y_query(use, 5.0, for_clause=clause, aggregate="count"))
        x = np.asarray(database["Obs"].column_view("X"), dtype=float)
        expected = float(((x < 2.0) | (x > 8.0)).sum())
        assert result.value == pytest.approx(expected, rel=0.05)
        assert result.metadata["n_disjuncts"] == 2

    def test_sum_aggregate(self, linear_world):
        database, dag, _, use, columns = linear_world
        engine = linear_engine(database, dag)
        result = engine.evaluate(avg_y_query(use, 5.0, aggregate="sum"))
        truth = true_mean_y_under_do_b(5.0, columns["X"]) * len(database["Obs"])
        assert result.value == pytest.approx(truth, rel=0.05)

    def test_block_contributions_sum_to_value_for_sum(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        result = engine.evaluate(avg_y_query(use, 5.0, aggregate="sum"))
        assert sum(b.partial_value for b in result.block_contributions) == pytest.approx(
            result.value
        )

    def test_runtime_recorded(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        assert engine.evaluate(avg_y_query(use, 5.0)).runtime_seconds > 0


class TestValidation:
    def test_unknown_attribute_in_query(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Missing", SetTo(1))],
            output_attribute="Y",
        )
        with pytest.raises(QuerySemanticsError, match="Missing"):
            engine.evaluate(query)

    def test_immutable_attribute_rejected(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("ID", SetTo(1))],
            output_attribute="Y",
        )
        with pytest.raises(QuerySemanticsError, match="immutable"):
            engine.evaluate(query)

    def test_causally_connected_multi_update_rejected(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("X", SetTo(1.0)), AttributeUpdate("B", SetTo(1.0))],
            output_attribute="Y",
        )
        with pytest.raises(QuerySemanticsError, match="causally connected"):
            engine.evaluate(query)

    def test_mixed_pre_post_atom_rejected(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        query = avg_y_query(use, 5.0, for_clause=(pre("Y") - post("Y")) < 2)
        with pytest.raises(QuerySemanticsError, match="mixing Pre and Post"):
            engine.evaluate(query)

    def test_too_many_disjuncts_rejected(self, linear_world):
        database, dag, _, use, _ = linear_world
        engine = linear_engine(database, dag)
        clause = col("X") == 0
        for i in range(8):
            clause = clause | (col("X") == float(i + 1))
        with pytest.raises(QuerySemanticsError, match="disjuncts"):
            engine.evaluate(avg_y_query(use, 5.0, for_clause=clause))


class TestMultiRelation:
    def test_student_attendance_effect_on_grade(self, small_student, fast_config):
        engine = WhatIfEngine(
            small_student.database, small_student.causal_dag, fast_config
        )
        query_high = WhatIfQuery(
            use=small_student.default_use,
            updates=[AttributeUpdate("Attendance", SetTo(95.0))],
            output_attribute="Grade",
            output_aggregate="avg",
        )
        query_low = WhatIfQuery(
            use=small_student.default_use,
            updates=[AttributeUpdate("Attendance", SetTo(10.0))],
            output_attribute="Grade",
            output_aggregate="avg",
        )
        high = engine.evaluate(query_high).value
        low = engine.evaluate(query_low).value
        assert high > low + 5.0  # attendance has a strong positive causal effect

    def test_amazon_price_cut_raises_ratings(self, small_amazon, fast_config):
        engine = WhatIfEngine(small_amazon.database, small_amazon.causal_dag, fast_config)
        use = small_amazon.default_use
        cut = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Price", MultiplyBy(0.5))],
            output_attribute="Rtng",
            output_aggregate="avg",
            for_clause=(pre("Category") == "Laptop"),
        )
        hike = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Price", MultiplyBy(1.5))],
            output_attribute="Rtng",
            output_aggregate="avg",
            for_clause=(pre("Category") == "Laptop"),
        )
        assert engine.evaluate(cut).value > engine.evaluate(hike).value

    def test_blocks_reported_for_amazon(self, small_amazon, fast_config):
        engine = WhatIfEngine(small_amazon.database, small_amazon.causal_dag, fast_config)
        query = WhatIfQuery(
            use=small_amazon.default_use,
            updates=[AttributeUpdate("Price", MultiplyBy(0.9))],
            output_attribute="Rtng",
            output_aggregate="avg",
        )
        result = engine.evaluate(query)
        categories = set(small_amazon.database["Product"].column_view("Category"))
        assert result.n_blocks == len(categories)

    def test_disable_blocks_gives_same_answer(self, small_amazon):
        base_config = EngineConfig(regressor="linear")
        no_blocks = EngineConfig(regressor="linear", use_blocks=False)
        query = WhatIfQuery(
            use=small_amazon.default_use,
            updates=[AttributeUpdate("Price", MultiplyBy(0.8))],
            output_attribute="Rtng",
            output_aggregate="avg",
        )
        with_blocks = WhatIfEngine(
            small_amazon.database, small_amazon.causal_dag, base_config
        ).evaluate(query)
        without_blocks = WhatIfEngine(
            small_amazon.database, small_amazon.causal_dag, no_blocks
        ).evaluate(query)
        assert with_blocks.value == pytest.approx(without_blocks.value, rel=1e-9)
        assert without_blocks.n_blocks == 1


# -- warm == cold, bitwise ---------------------------------------------------------------
#
# A warm what-if takes masks, index sets and encoded backdoor blocks from a
# per-plan KernelCache and recomputes only what its update constants change;
# the per-block summary is computed on first access.  Neither may move a bit.

WARM_TEMPLATES = (
    # the four perf templates
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "USE Credit UPDATE(CreditHistory) = {c} * PRE(CreditHistory) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
    # two disjuncts: the inclusion-exclusion subsets
    "USE Credit WHEN Sex = 1 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT SUM(POST(CreditAmount)) FOR POST(Credit) = 1 OR POST(CreditAmount) >= 4000",
    # a When that empties the scope
    "USE Credit WHEN Age >= 1000 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1",
)
N_VARIANTS = 40
#: shapes the kernel treats differently: a term's rows, the number and sign of
#: its inclusion–exclusion terms, which contributions the aggregate reads, and
#: how the update function is applied at a term's rows
KERNEL_LAW_TEMPLATES = {
    "partial-when": "USE Credit WHEN Age >= 30 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1",
    "empty-idx": "USE Credit WHEN Age >= 60 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Age) < 30 OR POST(Credit) = 1",
    "three-disjuncts": "USE Credit WHEN Sex = 1 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT AVG(POST(CreditAmount)) FOR POST(Credit) = 1 "
    "OR (PRE(Age) >= 40 AND POST(Credit) = 0) OR PRE(Housing) >= 2",
    "count": "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
    "sum-add": "USE Credit WHEN Age < 50 UPDATE(CreditAmount) = {c} + PRE(CreditAmount) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "set": "USE Credit UPDATE(Status) = {c} OUTPUT AVG(POST(Credit))",
    "object-update": "USE Product WITH AVG(Review.Rating) AS Rtng WHEN Category = 'Laptop' "
    "UPDATE(Color) = '{s}' OUTPUT AVG(POST(Rtng)) FOR POST(Rtng) >= 3 OR PRE(Price) >= 500",
}


def eager_block_summary(aggregate, count, sum_, block_of_row, n_blocks, scope):
    """The parent commit's eager ``block_contribution_summary``, kept as the oracle."""
    per_row = count if aggregate == "count" else sum_
    totals = np.bincount(block_of_row, weights=per_row, minlength=n_blocks)
    sizes = np.bincount(block_of_row, minlength=n_blocks)
    scope_sizes = fused_mask_aggregate(
        block_of_row, n_blocks, mask=scope, how="count"
    ).astype(np.int64)
    return [
        BlockContribution(
            int(b), float(totals[b]), int(sizes[b]), int(scope_sizes[b])
        )
        for b in np.flatnonzero(sizes)
    ]


def variant_queries():
    return [
        parse_query(WARM_TEMPLATES[i % len(WARM_TEMPLATES)].format(c=round(0.6 + 0.02 * i, 6)))
        for i in range(N_VARIANTS)
    ]


def assert_same_answer(warm, cold):
    for name in (
        "value", "expected_qualifying_count", "aggregate", "n_view_tuples",
        "n_scope_tuples", "n_blocks", "backdoor_set", "variant", "metadata",
    ):
        assert getattr(warm, name) == getattr(cold, name), name


@pytest.fixture(scope="module")
def german():
    return make_german_syn(260, seed=4)


class RecordingKernelCache(KernelCache):
    """A kernel cache that remembers the keys it was asked for."""

    __slots__ = ("keys", "built")

    def __init__(self) -> None:
        super().__init__()
        self.keys: list = []
        self.built: list = []

    def get(self, key, build, reads=()):
        self.keys.append(key)

        def recorded():
            self.built.append(key)
            return build()

        return super().get(key, recorded, reads)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("regressor", ["linear", "forest"])
    def test_variants_through_one_kernel_cache(self, german, regressor):
        config = EngineConfig(regressor=regressor, n_forest_trees=3, max_tree_depth=3)
        engine = WhatIfEngine(german.database, german.causal_dag, config)
        view = german.default_use.build(engine.database)
        kernels = KernelCache()
        estimators = {}
        for i, query in enumerate(variant_queries()):
            prepared = engine.prepare(query, view=view, kernels=kernels)
            template = i % len(WARM_TEMPLATES)
            if template not in estimators:
                estimators[template] = engine.build_estimator(query, prepared)
            warm = engine.evaluate(
                query, prepared=prepared, estimator=estimators[template]
            )
            cold_session = HypeR(german.database, german.causal_dag, config)
            cold = cold_session.what_if(query)
            assert_same_answer(warm, cold)
            # the parent's eager summary over the cold path's own arrays
            cold_prepared = cold_session.whatif_engine.prepare(query)
            count, sum_ = causal_contribution_rows(
                query,
                cold_prepared,
                cold_session.whatif_engine.build_estimator(query, cold_prepared),
            )[0].per_row()
            oracle = eager_block_summary(
                warm.aggregate, count, sum_, cold_prepared.block_of_row,
                cold_prepared.n_blocks, cold_prepared.scope_mask,
            )
            assert list(warm.block_contributions) == oracle
            assert list(cold.block_contributions) == oracle
            assert warm.block_contributions == cold.block_contributions
        assert kernels.hits > kernels.misses  # the variants did share the plan's arrays

    def test_block_summary_runs_on_first_access_only(self, german, monkeypatch):
        calls = []
        real = whatif_module.block_contribution_summary

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(whatif_module, "block_contribution_summary", spy)
        engine = WhatIfEngine(
            german.database, german.causal_dag, EngineConfig(regressor="linear")
        )
        result = engine.evaluate(variant_queries()[2])
        assert calls == []  # not when evaluate returns
        n_blocks = len(result.block_contributions)
        assert len(calls) == 1
        assert n_blocks == result.n_blocks > 1
        blocks = list(result.block_contributions)
        assert result.block_contributions[0] == blocks[0]
        assert result.block_contributions == blocks
        assert len(calls) == 1  # and never again
        assert sum(b.partial_value for b in blocks) == pytest.approx(result.value)
        # a pickled copy carries the plain list
        assert pickle.loads(pickle.dumps(result)).block_contributions == blocks

    # -- predictions that read only the update attribute --------------------------------

    @pytest.mark.parametrize("regressor", ["linear", "ridge", "forest"])
    @pytest.mark.parametrize("update", ["Price", "Brand"])  # a numeric and a one-hot block
    def test_any_row_subset_predicts_what_the_full_set_does(self, regressor, update):
        amazon = make_amazon_syn(150, seed=4)
        config = EngineConfig(regressor=regressor, n_forest_trees=3, max_tree_depth=3)
        view = amazon.default_use.build(amazon.database)
        estimator = PostUpdateEstimator(
            view=view, view_dag=None, update_attributes=[update],
            outcome_attributes=["Rtng"], config=config,
        )
        n = len(view)
        rtng = np.asarray(view.column_view("Rtng"), dtype=float)
        count = estimator.regressor_for("count", lambda: (rtng > 3).astype(float))
        total = estimator.regressor_for("sum", lambda: rtng)
        post_values = {
            "Price": {"Price": 1.3 * np.asarray(view.column_view("Price"), dtype=float)},
            "Brand": {"Brand": np.array(["Asus"] * n, dtype=object)},
        }[update]
        rng = np.random.default_rng(7)
        subsets = [np.arange(n)] + [
            np.sort(rng.choice(n, size=size, replace=False)) for size in (1, 2, 17, n // 2, n - 1)
        ]
        kernels = RecordingKernelCache()

        def updated(idx):
            return {
                a: encode_post(estimator.encoder(a), v[idx], [None])
                for a, v in post_values.items()
            }

        for fitted in (count, total):
            (full,) = estimator.predict_rows(fitted, view, updated(subsets[0]), subsets[0])
            for k, idx in enumerate(subsets):
                (fresh,) = estimator.predict_rows(fitted, view, updated(idx), idx)
                assert np.array_equal(fresh, full[idx])
                for _ in range(2):  # building the cached piece, then reading it
                    (warm,) = estimator.predict_rows(
                        fitted, view, updated(idx), idx, kernels=kernels, idx_token=("rows", k)
                    )
                    assert np.array_equal(warm, full[idx])
            if regressor != "forest":
                # closeness to the parent: one einsum over the stacked row
                encoder, model = fitted._encoder, fitted._model
                columns = {a: view.column_view(a) for a in encoder.attribute_order} | post_values
                stacked = np.hstack(
                    [encoder.encoders[a].transform(columns[a]) for a in encoder.attribute_order]
                )
                parent = np.einsum("ij,j->i", stacked, model.coefficients) + model.intercept
                # the same terms summed in another order: a few ulp of the
                # row's largest term (its value can be smaller: terms cancel)
                largest = np.maximum(
                    np.abs(stacked * model.coefficients).max(axis=1), abs(model.intercept)
                )
                assert (np.abs(full - parent) <= 4 * np.spacing(largest)).all()
        kinds = [key[0] for key in kernels.keys]
        # an encoded block per (attribute, row set), shared by both regressors
        blocks = len(subsets) * len(estimator.backdoor_set)
        if regressor == "forest":
            assert set(kinds) == {"block"}
            assert len(kernels) == blocks
        else:  # and one partial sum per (row set, regressor): the two do not share one
            assert set(kinds) == {"base", "block"}
            assert len(kernels) == blocks + len(subsets) * 2

    def test_a_linear_plan_encodes_each_backdoor_block_once(self, german):
        config = EngineConfig(regressor="linear")
        engine = WhatIfEngine(german.database, german.causal_dag, config)
        view = german.default_use.build(engine.database)
        kernels = RecordingKernelCache()
        estimators = {}
        for i, query in enumerate(variant_queries()):
            prepared = engine.prepare(query, view=view, kernels=kernels)
            estimator = estimators.setdefault(
                i % len(WARM_TEMPLATES), engine.build_estimator(query, prepared)
            )
            engine.evaluate(query, prepared=prepared, estimator=estimator)
        assert "base" in {key[0] for key in kernels.keys}
        # each regressor's partial sum reads the encoded blocks of its fixed
        # attributes; every estimator over the view's rows shares them
        asked = [key for key in kernels.keys if key[0] == "block"]
        built = [key for key in kernels.built if key[0] == "block"]
        assert len(built) == len(set(built)) == len(set(asked)) < len(asked)

    @pytest.mark.parametrize("shape", list(KERNEL_LAW_TEMPLATES))
    def test_a_warm_variant_is_the_cold_answer(self, german, shape):
        # the second and third variants of a plan run the kernel-cache path:
        # pre values, bases and index sets per plan, f at each term's rows
        template = KERNEL_LAW_TEMPLATES[shape]
        amazon = shape == "object-update"
        data = make_amazon_syn(150, seed=4) if amazon else german
        config = EngineConfig(regressor="linear")
        service = HypeRService(data.database, data.causal_dag, config, result_cache_size=0)
        cold = HypeR(data.database, data.causal_dag, config)
        try:
            for k, c in enumerate((0.8, 1.3, 2.0)):
                query = parse_query(template.format(c=c, s=("Red", "Blue", "Silver")[k]))
                warm, fresh = service.execute(query), cold.what_if(query)
                assert_same_answer(warm, fresh)
                # read lazily, after the answer is out: the same blocks
                assert list(warm.block_contributions) == list(fresh.block_contributions)
            (kernels,) = service.caches.kernels.values()
            assert kernels.hits > 0
            for entry in kernels._entries.values():  # every cached array is read-only
                if isinstance(entry, np.ndarray) and entry.size:
                    with pytest.raises(ValueError):
                        entry[0] = entry[0]
            # and the answers it gave did not write into it
            again = service.execute(query)
            assert_same_answer(again, fresh)
        finally:
            service.close()

    def test_inclusion_exclusion_is_the_formula(self, german):
        # Section A.2.3 written out per row from the estimator's public form
        # (Equation 1 over whole post columns), against the kernel that works
        # at each term's rows: base, then one signed term per disjunct subset
        engine = WhatIfEngine(german.database, german.causal_dag, EngineConfig(regressor="linear"))
        query = parse_query(KERNEL_LAW_TEMPLATES["three-disjuncts"].format(c=1.3))
        prepared = engine.prepare(query)
        estimator = engine.build_estimator(query, prepared)
        count, sum_ = causal_contribution_rows(query, prepared, estimator)[0].per_row()
        view, scope = prepared.view, prepared.scope_mask
        status = np.asarray(view.column_view("Status"), dtype=float)
        post_values = {"Status": np.where(scope, 1.3 * status, status)}
        pre = [evaluate_mask(d.pre, view) for d in prepared.disjuncts]
        post = [evaluate_mask(d.post, view) for d in prepared.disjuncts]
        output = whatif_module.numeric_output_column(view, "CreditAmount")
        qualifies = np.logical_or.reduce([p & q for p, q in zip(pre, post)])
        want_count = np.where(scope, 0.0, qualifies.astype(float))
        want_sum = np.where(scope | ~qualifies, 0.0, output)
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                sign = 1.0 if size % 2 else -1.0
                rows = np.logical_and.reduce([scope] + [pre[k] for k in subset])
                target = np.logical_and.reduce([post[k] for k in subset]).astype(float)
                prob = counterfactual_mean(estimator, target, rows, post_values)
                want_count[rows] += sign * np.clip(prob[rows], 0.0, 1.0)
                total = counterfactual_mean(estimator, output * target, rows, post_values)
                want_sum[rows] += sign * total[rows]
        assert np.allclose(count, np.clip(want_count, 0.0, 1.0), rtol=1e-12, atol=1e-12)
        assert np.allclose(sum_, want_sum, rtol=1e-12, atol=1e-9)
        assert 0 < scope.sum() < len(scope) and (count > 0).sum() > (~scope).sum() / 4

    def test_commit_between_variants_is_not_served_old_rows(self):
        # Two relations, one committed: the service evicts by relation tag and
        # generation key rather than clearing everything, so a kernel cache
        # that outlived the commit would answer from the old rows' masks.
        amazon = make_amazon_syn(150, seed=4)
        templates = (
            "USE Product WITH AVG(Review.Rating) AS Rtng UPDATE(Price) = {c} * PRE(Price) "
            "OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'",
            "USE Product WITH AVG(Review.Rating) AS Rtng WHEN Brand = 'Asus' "
            "UPDATE(Price) = {c} * PRE(Price) OUTPUT AVG(POST(Rtng))",
        )
        queries = [
            parse_query(templates[i % 2].format(c=round(0.7 + 0.05 * i, 6)))
            for i in range(12)
        ]
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            amazon.database, amazon.causal_dag, config, result_cache_size=0
        )
        try:
            before = [service.execute(query).value for query in queries[:4]]
            assert len(service.caches.kernels) == 1  # one view, one kernel cache
            for column in ("Category", "Brand"):  # the For column, the When column
                values = list(service.database["Product"].column(column))
                service.update_relation_columns({"Product": {column: values[::-1]}})
                cold = HypeR(service.database, amazon.causal_dag, config)
                for query in queries:
                    warm, fresh = service.execute(query), cold.what_if(query)
                    assert_same_answer(warm, fresh)
                    assert warm.block_contributions == fresh.block_contributions
            after = [service.execute(query).value for query in queries[:4]]
            assert after != before  # the commits did move the answers
        finally:
            service.close()


# -- the term-row reduction -------------------------------------------------------------
#
# A what-if's contributions are the plan's unaffected-row bases plus the
# contributions at the rows of its inclusion–exclusion terms; only the latter
# are computed per query.

REDUCTION_TEMPLATES = {
    **KERNEL_LAW_TEMPLATES,
    "two-disjuncts": WARM_TEMPLATES[4],
    "empty-rows": WARM_TEMPLATES[5],
    # the first term covers part of the term rows, and the count is clipped
    "first-term-partial": "USE Credit WHEN Sex = 1 UPDATE(CreditAmount) = {c} * "
    "PRE(CreditAmount) OUTPUT COUNT(POST(Credit)) "
    "FOR (PRE(Age) >= 40 AND POST(Credit) = 1) OR (PRE(Housing) >= 2 AND POST(Credit) = 0)",
}


def assert_two_part_rule(contributions, aggregate, prepared):
    """Bases are +0.0 at the term rows, and an expected count or sum is the
    base total plus the sum at those rows."""
    rows = contributions.rows
    pre_masks = [evaluate_mask(d.pre, prepared.view) for d in prepared.disjuncts]
    union = np.logical_or.reduce(pre_masks) & prepared.scope_mask
    assert rows.tobytes() == np.flatnonzero(union).tobytes()
    sides = [(contributions.count_base, contributions.count_at, contributions.count_total)]
    if contributions.sum_base is not None:
        sides.append((contributions.sum_base, contributions.sum_at, contributions.sum_total))
    for base, at, total in sides:
        assert len(base) == len(prepared.view) and len(at) == len(rows)
        assert base[rows].tobytes() == np.zeros(len(rows)).tobytes()  # +0.0, not -0.0
        assert total == float(base.sum())
    value, expected_count = combine_aggregate(aggregate, contributions)
    assert expected_count == contributions.count_total + float(contributions.count_at.sum())
    if aggregate != "count":
        expected_sum = contributions.sum_total + float(contributions.sum_at.sum())
        assert value == (expected_sum if aggregate == "sum" else expected_sum / expected_count)
    # the whole-array sum, up to the order of the additions
    count, _ = contributions.per_row()
    assert expected_count == pytest.approx(float(count.sum()), rel=1e-12, abs=1e-12)


class TestTermRowReduction:
    @pytest.mark.parametrize("shape", list(REDUCTION_TEMPLATES))
    def test_a_warm_variants_per_row_arrays_are_the_cold_ones(self, german, shape):
        template = REDUCTION_TEMPLATES[shape]
        data = make_amazon_syn(150, seed=4) if shape == "object-update" else german
        engine = WhatIfEngine(data.database, data.causal_dag, EngineConfig(regressor="linear"))
        view = data.default_use.build(data.database)
        kernels = KernelCache()
        estimator = None
        for k, c in enumerate((0.8, 1.3, 2.0)):
            query = parse_query(template.format(c=c, s=("Red", "Blue", "Silver")[k]))
            prepared = engine.prepare(query, view=view, kernels=kernels)
            estimator = estimator or engine.build_estimator(query, prepared)
            (warm,) = causal_contribution_rows(query, prepared, estimator)
            cold_prepared = engine.prepare(query)
            (cold,) = causal_contribution_rows(
                query, cold_prepared, engine.build_estimator(query, cold_prepared)
            )
            assert warm.rows.tobytes() == cold.rows.tobytes()
            for warm_side, cold_side in zip(warm.per_row(), cold.per_row()):
                assert (warm_side is None) == (cold_side is None)
                if warm_side is not None:
                    assert warm_side.tobytes() == cold_side.tobytes()
            aggregate = query.output_aggregate
            assert (warm.sum_base is None) == (aggregate == "count")
            assert combine_aggregate(aggregate, warm) == combine_aggregate(aggregate, cold)
            assert_two_part_rule(warm, aggregate, prepared)
        if shape == "empty-rows":
            assert warm.rows.size == 0 and warm.count_at.size == 0

    @pytest.mark.parametrize("shape", ["partial-when", "three-disjuncts", "first-term-partial"])
    def test_a_second_variant_adds_no_kernel_entry(self, german, shape):
        engine = WhatIfEngine(german.database, german.causal_dag, EngineConfig(regressor="linear"))
        view = german.default_use.build(german.database)
        kernels = RecordingKernelCache()
        first, second = (
            parse_query(REDUCTION_TEMPLATES[shape].format(c=c)) for c in (0.8, 1.3)
        )
        prepared = engine.prepare(first, view=view, kernels=kernels)
        estimator = engine.build_estimator(first, prepared)
        engine.evaluate(first, prepared=prepared, estimator=estimator)
        entries, misses = len(kernels), kernels.misses
        assert any(key[0] == "count_total" for key in kernels.keys)
        result = engine.evaluate(
            second,
            prepared=engine.prepare(second, view=view, kernels=kernels),
            estimator=estimator,
        )
        assert (len(kernels), kernels.misses) == (entries, misses)
        assert_same_answer(
            result, HypeR(german.database, german.causal_dag, engine.config).what_if(second)
        )

    def test_a_warm_variant_allocates_no_view_length_array(self):
        # 60 000 rows, a When scope of about 10 %: the bases are the plan's,
        # so a variant allocates arrays over its term rows only — less than
        # one float per view row at its peak
        data = make_german_syn(60_000, seed=4)
        engine = WhatIfEngine(data.database, data.causal_dag, EngineConfig(regressor="linear"))
        view = data.default_use.build(data.database)
        kernels = KernelCache()
        template = (
            "USE Credit WHEN Age >= 70 UPDATE(Status) = {c} * PRE(Status) "
            "OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1"
        )
        estimator = None
        for k, c in enumerate((0.8, 1.3, 1.7)):
            query = parse_query(template.format(c=c))
            prepared = engine.prepare(query, view=view, kernels=kernels)
            estimator = estimator or engine.build_estimator(query, prepared)
            if k < 2:
                engine.evaluate(query, prepared=prepared, estimator=estimator)
        assert 0.05 < prepared.scope_mask.mean() < 0.15
        tracemalloc.start()
        try:
            result = engine.evaluate(query, prepared=prepared, estimator=estimator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(view)
        cold = HypeR(data.database, data.causal_dag, engine.config).what_if(query)
        assert result.value == cold.value


# -- plan groups ------------------------------------------------------------------------
#
# Variants of one plan group share one call of the kernel: each term's post
# values for all of them are predicted as one stacked block.


class TestVariantGroups:
    @pytest.mark.parametrize("regressor", ["linear", "forest"])
    @pytest.mark.parametrize("shape", list(REDUCTION_TEMPLATES))
    def test_a_group_answers_as_each_variant_alone(self, german, shape, regressor):
        config = EngineConfig(regressor=regressor, n_forest_trees=3, max_tree_depth=3)
        data = make_amazon_syn(150, seed=4) if shape == "object-update" else german
        engine = WhatIfEngine(data.database, data.causal_dag, config)
        view = data.default_use.build(data.database)
        template = REDUCTION_TEMPLATES[shape]
        queries = [
            parse_query(template.format(c=c, s=s))
            for c, s in ((0.8, "Red"), (1.3, "Blue"), (2.0, "Silver"), (1.3, "Blue"))
        ]
        prepared = engine.prepare(queries[0], view=view, kernels=KernelCache())
        estimator = engine.build_estimator(queries[0], prepared)
        stacked = causal_contribution_rows(
            queries[0], prepared, estimator, [query.updates for query in queries]
        )
        answers = engine.evaluate_variants(queries, prepared=prepared, estimator=estimator)
        assert len(stacked) == len(answers) == len(queries)
        for query, group_part, answer in zip(queries, stacked, answers):
            cold_prepared = engine.prepare(query)
            (cold,) = causal_contribution_rows(
                query, cold_prepared, engine.build_estimator(query, cold_prepared)
            )
            for side in ("count_at", "sum_at"):
                ours, theirs = getattr(group_part, side), getattr(cold, side)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert ours.tobytes() == theirs.tobytes()
            alone = engine.evaluate(query)
            assert (answer.value, answer.expected_qualifying_count) == (
                alone.value,
                alone.expected_qualifying_count,
            )
            assert answer.block_contributions == alone.block_contributions

    def test_a_failing_variant_fails_the_group_call(self, german):
        # the kernel raises for the group; the service then answers each
        # variant alone, so the failure stays with its own query
        engine = WhatIfEngine(german.database, german.causal_dag, EngineConfig(regressor="linear"))
        good = parse_query("USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit))")
        prepared = engine.prepare(good)
        estimator = engine.build_estimator(good, prepared)
        bad = [AttributeUpdate("Status", SetTo("high"))]
        with pytest.raises((ValueError, TypeError)):
            causal_contribution_rows(good, prepared, estimator, [good.updates, bad])
        service = HypeRService(german.database, german.causal_dag, engine.config)
        try:
            variants = [
                good,
                WhatIfQuery(
                    use=good.use, updates=bad, output_attribute="Credit", output_aggregate="avg"
                ),
            ]
            outcomes = service.execute_many(variants, return_errors=True)
            assert outcomes[0].value == engine.evaluate(good).value
            assert isinstance(outcomes[1], (ValueError, TypeError))
        finally:
            service.close()
