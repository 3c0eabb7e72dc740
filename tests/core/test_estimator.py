"""Tests for the view-level DAG projection and the backdoor-adjusted estimator."""

import pickle

import numpy as np
import pytest

from repro.causal import CausalDAG, minimal_backdoor_set
from repro.core import EngineConfig, PostUpdateEstimator, Variant, WhatIfEngine, build_view_dag
from repro.core.estimator import build_view_dag as build_view_dag_direct
from repro.core.whatif import encode_post
from repro.datasets import make_german_syn
from repro.exceptions import QuerySemanticsError
from repro.lang import parse_query
from repro.ml import FeatureEncoder, make_regressor
from repro.relational import Relation, UseSpec
from repro.relational.columnar import KernelCache

from .linear_fixture import make_linear_dataset, true_mean_y_under_do_b
from .oracles import counterfactual_mean


class TestBuildViewDag:
    def test_none_passes_through(self, figure1_database, figure4_use):
        assert build_view_dag(None, figure4_use, figure1_database) is None

    def test_base_and_aggregated_attributes_mapped(
        self, figure1_database, figure2_dag, figure4_use
    ):
        view_dag = build_view_dag(figure2_dag, figure4_use, figure1_database)
        assert view_dag is not None
        assert set(view_dag.nodes) >= {"Category", "Brand", "Price", "Rtng", "Senti"}
        # Quality and Color are not view columns, so they are dropped.
        assert "Quality" not in view_dag
        assert view_dag.has_edge("Price", "Rtng")
        assert view_dag.has_edge("Category", "Price")

    def test_aggregated_column_inherits_causal_role(self, small_amazon):
        view_dag = build_view_dag(
            small_amazon.causal_dag, small_amazon.default_use, small_amazon.database
        )
        assert view_dag.has_edge("Quality", "Rtng")
        assert view_dag.has_edge("Price", "Rtng")
        assert view_dag.has_edge("Quality", "Senti")

    def test_cross_tuple_flag_dropped_but_edge_kept(self, small_amazon):
        view_dag = build_view_dag(
            small_amazon.causal_dag, small_amazon.default_use, small_amazon.database
        )
        edge = view_dag.edge("Price", "Rtng")
        assert not edge.cross_tuple

    def test_student_two_relation_mapping(self, small_student):
        view_dag = build_view_dag(
            small_student.causal_dag, small_student.default_use, small_student.database
        )
        assert view_dag.has_edge("Attendance", "Grade")
        assert view_dag.has_edge("Assignment", "Grade")
        assert view_dag.has_edge("Age", "Attendance")

    def test_alias_used_for_direct_import(self):
        assert build_view_dag is build_view_dag_direct

    def test_projection_built_once_per_dag_and_dropped_when_it_changes(self, small_amazon):
        dag = small_amazon.causal_dag.copy()
        use, database = small_amazon.default_use, small_amazon.database
        view_dag = build_view_dag(dag, use, database)
        assert build_view_dag(dag, use, database) is view_dag
        # another Use over the same DAG is another projection
        other = build_view_dag(dag, UseSpec(base_relation="Product"), database)
        assert other is not view_dag and "Rtng" not in other
        assert not view_dag.has_edge("Color", "Price")
        dag.add_edge(("Color", "Price"))
        rebuilt = build_view_dag(dag, use, database)
        assert rebuilt is not view_dag and rebuilt.has_edge("Color", "Price")


class TestDagFactsOnce:
    def test_backdoor_set_follows_a_mutated_dag(self):
        dag = CausalDAG(["B", "Y", "X", "Z"], [("X", "B"), ("X", "Y"), ("B", "Y")])
        assert minimal_backdoor_set(dag, "B", "Y") == {"X"}
        first = minimal_backdoor_set(dag, "B", "Y")
        first.add("mine")  # callers own what they get
        assert minimal_backdoor_set(dag, "B", "Y") == {"X"}
        dag.add_edge(("Z", "B"))
        dag.add_edge(("Z", "Y"))
        assert minimal_backdoor_set(dag, "B", "Y") == {"X", "Z"}
        dag.add_node("W")
        assert minimal_backdoor_set(dag, "B", "Y") == {"X", "Z"}

    def test_memo_is_bounded(self, monkeypatch):
        from repro.causal import dag as dag_module

        monkeypatch.setattr(dag_module, "_MEMO_ENTRIES", 3)
        dag = CausalDAG(["A", "B"], [("A", "B")])
        for i in range(10):  # keys can come from queries: the memo must not grow with them
            assert dag.memo(("k", i), lambda i=i: i * i) == i * i
            assert len(dag._memo) <= 3
        assert dag.memo(("k", 9), lambda: "rebuilt") == 81  # still a memo

    def test_memo_is_keyed_by_what_the_search_reads(self):
        dag = CausalDAG(
            ["B", "Y", "X", "Z"], [("X", "Z"), ("Z", "B"), ("X", "Y"), ("B", "Y")]
        )
        assert minimal_backdoor_set(dag, "B", "Y") == {"Z"}
        assert minimal_backdoor_set(dag, "Z", "Y") == {"X"}


class TestPostUpdateEstimator:
    @pytest.fixture(scope="class")
    def linear_setup(self):
        database, dag, scm, use, columns = make_linear_dataset(n=1500, seed=1)
        view = use.build(database)
        view_dag = build_view_dag(dag, use, database)
        return database, view, view_dag, columns

    def _estimator(self, view, view_dag, config=None):
        return PostUpdateEstimator(
            view=view,
            view_dag=view_dag,
            update_attributes=["B"],
            outcome_attributes=["Y"],
            config=config or EngineConfig(regressor="linear"),
        )

    def test_backdoor_set_is_confounder(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(view, view_dag)
        assert estimator.backdoor_set == ("X",)
        assert estimator.feature_attributes == ("B", "X")

    def test_nb_variant_uses_all_other_attributes(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(
            view, view_dag, EngineConfig(regressor="linear", variant=Variant.HYPER_NB)
        )
        assert estimator.backdoor_set == ("X",)  # only X remains after excluding keys/B/Y

    def test_no_dag_falls_back_to_all_attributes(self, linear_setup):
        _, view, _, _ = linear_setup
        estimator = self._estimator(view, None)
        assert "X" in estimator.backdoor_set

    def test_counterfactual_mean_matches_interventional_truth(self, linear_setup):
        _, view, view_dag, columns = linear_setup
        estimator = self._estimator(view, view_dag)
        target = np.asarray(view.column_view("Y"), dtype=float)
        n = len(view)
        post_values = {"B": [5.0] * n}
        predictions = counterfactual_mean(
            estimator, target, [True] * n, post_values, cache_key="y"
        )
        truth = true_mean_y_under_do_b(5.0, columns["X"])
        assert float(predictions.mean()) == pytest.approx(truth, rel=0.05)

    def test_counterfactual_differs_from_naive_correlation(self, linear_setup):
        """Adjusting for X must remove the confounding bias."""
        _, view, view_dag, columns = linear_setup
        adjusted = self._estimator(view, view_dag)
        unadjusted = PostUpdateEstimator(
            view=view,
            view_dag=None,
            update_attributes=["B"],
            outcome_attributes=["Y", "X"],  # excludes X from the adjustment set
            config=EngineConfig(regressor="linear"),
        )
        assert unadjusted.backdoor_set == ()
        target = np.asarray(view.column_view("Y"), dtype=float)
        n = len(view)
        post = {"B": [8.0] * n}
        truth = true_mean_y_under_do_b(8.0, columns["X"])
        adjusted_err = abs(float(counterfactual_mean(adjusted, target, [True] * n, post).mean()) - truth)
        naive_err = abs(
            float(counterfactual_mean(unadjusted, target, [True] * n, post).mean()) - truth
        )
        assert adjusted_err < naive_err

    def test_prediction_mask_respected(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(view, view_dag)
        target = np.asarray(view.column_view("Y"), dtype=float)
        mask = np.zeros(len(view), dtype=bool)
        mask[:10] = True
        predictions = counterfactual_mean(estimator, target, mask, {"B": [0.0] * len(view)})
        assert (predictions[10:] == 0).all()
        assert predictions[:10].any()

    def test_sampling_controls_training_rows(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        sampled = self._estimator(
            view,
            view_dag,
            EngineConfig(regressor="linear", variant=Variant.HYPER_SAMPLED, sample_size=200),
        )
        assert sampled.n_training_rows == 200
        full = self._estimator(view, view_dag)
        assert full.n_training_rows == len(view)

    def test_unknown_update_attribute_rejected(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        with pytest.raises(QuerySemanticsError):
            PostUpdateEstimator(
                view=view,
                view_dag=view_dag,
                update_attributes=["Missing"],
                outcome_attributes=["Y"],
                config=EngineConfig(regressor="linear"),
            )

    def test_missing_post_values_rejected(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(view, view_dag)
        target = np.zeros(len(view))
        with pytest.raises(QuerySemanticsError):
            counterfactual_mean(estimator, target, [True] * len(view), {})

    def test_misaligned_target_rejected(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(view, view_dag)
        with pytest.raises(QuerySemanticsError):
            counterfactual_mean(estimator, [1.0], [True], {"B": [1.0]})

    def test_regressor_cache_reused(self, linear_setup):
        _, view, view_dag, _ = linear_setup
        estimator = self._estimator(view, view_dag)
        target = np.asarray(view.column_view("Y"), dtype=float)
        n = len(view)
        counterfactual_mean(estimator, target, [True] * n, {"B": [1.0] * n}, cache_key="k")
        cached = estimator._regressor_cache["k"]
        counterfactual_mean(estimator, target, [True] * n, {"B": [2.0] * n}, cache_key="k")
        assert estimator._regressor_cache["k"] is cached


# -- one encoder per estimator, one design per burst of fits -----------------------------


def kinds_view(n: int = 240, seed: int = 5) -> Relation:
    """A view mixing numeric, categorical and null-bearing columns of both kinds."""
    rng = np.random.default_rng(seed)
    num = rng.normal(size=n)
    cat = rng.choice(["a", "b", "c"], size=n).tolist()
    b = 0.5 * num + rng.normal(size=n)
    y = 2.0 * b + num + (np.asarray(cat) == "a") + rng.normal(0, 0.1, n)
    return Relation.from_columns(
        "V",
        {
            "ID": list(range(n)),
            "B": b.tolist(),
            "Num": num.tolist(),
            "Cat": cat,
            "NumNull": [None if i % 7 == 0 else float(v) for i, v in enumerate(rng.normal(size=n))],
            "CatNull": [None if i % 6 == 0 else c for i, c in enumerate(reversed(cat))],
            "Y": y.tolist(),
        },
        key=("ID",),
    )


def parent_fit(estimator: PostUpdateEstimator, target: np.ndarray):
    """A per-regressor fit: every regressor copies its training columns, fits
    its own encoder, stacks its own matrix and fits on it — a linear model on
    the column-major design behind a ones column, as the estimator's is."""
    train = estimator._train_indices
    columns = {a: estimator.view.column_view(a)[train] for a in estimator.feature_attributes}
    encoder = FeatureEncoder.fit_columns(columns)
    features = np.hstack(
        [encoder.encoders[a].transform(columns[a]) for a in encoder.attribute_order]
    )
    config = estimator.config
    model = make_regressor(
        config.regressor, random_state=config.random_state, **config.regressor_params()
    )
    y = np.asarray(target, dtype=float)[train]
    if config.regressor == "forest":
        return features, model.fit(features, y)
    design = np.asfortranarray(np.hstack([np.ones((len(features), 1)), features]))
    return features, model.fit_design(design, y)


FIT_CONFIGS = [
    pytest.param(regressor, sample_size, id=f"{regressor}-{sample_size}")
    for regressor in ("linear", "ridge", "forest")
    for sample_size in (None, 90)
]


class TestSharedTrainingDesign:
    def _estimator(self, regressor="linear", sample_size=None, update="B"):
        return PostUpdateEstimator(
            view=kinds_view(),
            view_dag=None,  # adjust for every other column: all four kinds are features
            update_attributes=[update],
            outcome_attributes=["Y"],
            config=EngineConfig(
                regressor=regressor, sample_size=sample_size, n_forest_trees=4, max_tree_depth=4
            ),
        )

    @pytest.mark.parametrize("regressor, sample_size", FIT_CONFIGS)
    def test_fits_equal_the_parents_per_regressor_fit(self, regressor, sample_size):
        estimator = self._estimator(regressor, sample_size)
        assert estimator.n_training_rows == (sample_size or len(estimator.view))
        y = np.asarray(estimator.view.column_view("Y"), dtype=float)
        targets = {"sum": y, "count": (y > 0).astype(float), "twice": 2.0 * y}
        design = None
        for key, target in targets.items():
            regressor_ = estimator.regressor_for(key, lambda t=target: t)
            features, oracle = parent_fit(estimator, target)
            model = regressor_._model
            if regressor == "forest":  # one stacked design per burst
                if design is None:
                    design = estimator._design
                assert design is not None and estimator._design is design
                assert np.array_equal(design[:, 1:], features) and (design[:, 0] == 1.0).all()
                assert np.array_equal(model.predict(features), oracle.predict(features))
            else:  # no design: the solver reads each attribute's block at the training rows
                assert estimator._design is None
                blocks = [estimator._training_block(a) for a in estimator.feature_attributes]
                assert np.array_equal(np.hstack(blocks), features)
                assert np.array_equal(model.coefficients, oracle.coefficients)
                assert model.intercept == oracle.intercept
            assert regressor_._encoder is estimator._encoder  # one per estimator
        assert estimator.regressor_cache_stats["fits"] == len(targets)

    @pytest.mark.parametrize("sample_size", [None, 90])
    def test_the_design_is_column_major_and_each_block_its_transform(self, sample_size):
        # a forest stacks the blocks into one design; a linear fit reads them unstacked
        forest = self._estimator("forest", sample_size=sample_size)
        linear = self._estimator(sample_size=sample_size)
        y = np.asarray(forest.view.column_view("Y"), dtype=float)
        for estimator in (forest, linear):
            estimator.regressor_for("y", lambda: y)
        design, encoder = forest._design, forest._encoder
        assert design.flags.f_contiguous and (design[:, 0] == 1.0).all()
        assert linear._design is None
        train = forest._train_indices
        for attribute, offset in encoder.offsets.items():
            column_encoder = encoder.encoders[attribute]
            block = design[:, 1 + offset : 1 + offset + column_encoder.width]
            expected = column_encoder.transform(forest.view.column_view(attribute)[train])
            assert block.flags.f_contiguous and np.array_equal(block, expected)
            block = linear._training_block(attribute)
            assert block.flags.f_contiguous and np.array_equal(block, expected)
        # a float column without nulls trains uncopied when every row does
        num = linear._training_block("Num")
        assert np.shares_memory(num, linear.view.column_view("Num")) == (sample_size is None)

    def test_whole_view_training_reads_the_columns_without_copying(self):
        estimator = self._estimator()
        column = estimator.view.column_view("Num")
        assert estimator._at_training_rows(column) is column
        sampled = self._estimator(sample_size=90)
        assert len(sampled._at_training_rows(column)) == 90

    def test_no_design_after_the_second_evaluation_of_a_warm_plan(self):
        german = make_german_syn(300, seed=2)
        config = EngineConfig(regressor="forest", n_forest_trees=4, max_tree_depth=4)
        engine = WhatIfEngine(german.database, german.causal_dag, config)
        text = "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT AVG(POST(Credit))"
        first, second = parse_query(text.format(c=1.1)), parse_query(text.format(c=1.2))
        prepared = engine.prepare(first, kernels=KernelCache())
        estimator = engine.build_estimator(first, prepared)
        engine.evaluate(first, prepared=prepared, estimator=estimator)
        encoder = estimator._encoder
        assert estimator._design is not None and encoder is not None  # the burst's
        engine.evaluate(second, prepared=engine.prepare(second), estimator=estimator)
        assert estimator._design is None and estimator._encoder is encoder
        assert estimator.regressor_cache_stats == {"fits": 2, "hits": 2, "cached": 2}

    def test_a_keyless_fit_leaves_no_design_and_always_fits(self):
        estimator = self._estimator()
        y = np.asarray(estimator.view.column_view("Y"), dtype=float)
        a = estimator.regressor_for(None, lambda: y)
        b = estimator.regressor_for(None, lambda: y)
        assert a is not b and estimator._design is None
        assert estimator.regressor_cache_stats == {"fits": 2, "hits": 0, "cached": 0}
        assert np.array_equal(a._model.coefficients, b._model.coefficients)

    def test_the_pickled_state_holds_no_design(self):
        estimator = self._estimator("forest")
        y = np.asarray(estimator.view.column_view("Y"), dtype=float)
        fitted = estimator.regressor_for("y", lambda: y)
        assert estimator._design is not None
        clone = pickle.loads(pickle.dumps(estimator))
        assert clone._design is None and clone._encoder is not None
        n = len(estimator.view)
        idx = np.arange(n)
        post = {"B": encode_post(estimator.encoder("B"), np.full(n, 0.5), [None])}
        assert np.array_equal(
            clone.predict_rows(clone.regressor_for("y", lambda: y), clone.view, post, idx),
            estimator.predict_rows(fitted, estimator.view, post, idx),
        )
        assert clone.regressor_cache_stats["fits"] == 1  # the fitted regressor travelled
