"""The linear solver: one Gram factor per design, least-squares predictions.

``np.linalg.lstsq`` left ``src/``; it stays here as the reference the factor's
predictions are held to — 1e-9 relative, set beforehand from the designs'
condition (about 1e4 before column scaling, 1e3 after).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import EngineConfig, HypeR
from repro.datasets import make_amazon_syn, make_german_syn, make_student_syn
from repro.lang import parse_query
from repro.ml import LinearRegression, RidgeRegression
from repro.ml import linear as linear_module
from repro.ml.encoding import FeatureEncoder

BOUND = 1e-9


def view_design(dataset, target: str) -> tuple[np.ndarray, np.ndarray]:
    """The default view's design (every non-key attribute but ``target``) and target."""
    view = dataset.default_use.build(dataset.database)
    attributes = [
        a for a in view.attribute_names if a not in view.schema.key and a != target
    ]
    columns = {a: view.column_view(a) for a in attributes}
    design = FeatureEncoder.fit_columns(columns).design(columns)
    return design, np.asarray(view.column_view(target), dtype=float)


def designs() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    german, credit = view_design(make_german_syn(2000, seed=5), "Credit")
    out = {
        "german": (german, credit),
        # Brand / Category / Color one-hot blocks beside the intercept
        "amazon": view_design(make_amazon_syn(300, seed=5), "Rtng"),
        "student": view_design(make_student_syn(400, seed=5), "Grade"),
        "duplicated column": (np.hstack([german, german[:, 3:4]]), credit),
        "constant column": (np.hstack([german, np.full((len(german), 1), 3.0)]), credit),
    }
    return out


DESIGNS = designs()


def assert_least_squares(design: np.ndarray, target: np.ndarray, solution: np.ndarray):
    reference, *_ = np.linalg.lstsq(design, target, rcond=None)
    expected = design @ reference
    scale = max(np.abs(expected).max(), 1.0)
    assert np.abs(design @ solution - expected).max() <= BOUND * scale


def coefficients(model: LinearRegression) -> np.ndarray:
    return np.concatenate([[model.intercept], model.coefficients])


@pytest.mark.parametrize("name", DESIGNS)
class TestAgainstLstsq:
    def test_linear_predictions_are_the_least_squares_predictions(self, name):
        design, target = DESIGNS[name]
        for y in (target, (target > np.median(target)).astype(float)):
            model = LinearRegression().fit_design(design, y)
            assert_least_squares(design, y, coefficients(model))
            # the stand-alone door builds the same design and its own factor
            alone = LinearRegression().fit(design[:, 1:], y)
            assert np.array_equal(coefficients(alone), coefficients(model))

    def test_ridge_without_penalty_is_linear(self, name):
        design, target = DESIGNS[name]
        model = RidgeRegression(alpha=0.0).fit_design(design, target)
        assert_least_squares(design, target, coefficients(model))


class TestOneFactorPerDesign:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(linear_module.np.linalg, "eigh", counted)
        return calls

    def test_k_targets_over_one_design_decompose_once(self, eigh_calls):
        design, target = DESIGNS["amazon"]
        factor = LinearRegression().factorise(design)
        for k in range(5):
            model = LinearRegression().fit_design(design, target + k, factor)
            assert_least_squares(design, target + k, coefficients(model))
        assert eigh_calls == [(design.shape[1],) * 2]

    def test_an_estimator_keeps_its_factor_for_life(self, eigh_calls):
        dataset = make_german_syn(300, seed=5)
        session = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        query = parse_query(
            "USE Credit UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR PRE(Age) >= 30"
        )
        estimator = session.whatif_engine.build_estimator(query)
        targets = np.random.default_rng(0).normal(size=(4, len(estimator.view)))
        for k in (0, 1):  # one burst: two misses over one design
            estimator.regressor_for(("t", k), lambda k=k: targets[k])
        estimator.regressor_for(("t", 0), lambda: targets[0])  # a hit ends the burst
        assert estimator._design is None
        for k in (2, 3):  # a later burst rebuilds the design, not the factor
            estimator.regressor_for(("t", k), lambda k=k: targets[k])
        assert estimator.regressor_cache_stats["fits"] == 4
        assert len(eigh_calls) == 1

        # the factor crosses a pickle with its estimator; the design does not
        clone = pickle.loads(pickle.dumps(estimator))
        assert clone._design is None
        assert np.array_equal(clone._factor.matrix, estimator._factor.matrix)
        fresh = np.random.default_rng(1).normal(size=len(estimator.view))
        ours = estimator.regressor_for(("t", 4), lambda: fresh)
        theirs = clone.regressor_for(("t", 4), lambda: fresh)
        assert len(eigh_calls) == 1
        assert np.array_equal(
            coefficients(ours._model), coefficients(theirs._model)
        )

    def test_a_forest_estimator_has_no_factor(self, eigh_calls):
        dataset = make_german_syn(120, seed=5)
        config = EngineConfig(regressor="forest", n_forest_trees=2, max_tree_depth=2)
        session = HypeR(dataset.database, dataset.causal_dag, config)
        query = parse_query("USE Credit UPDATE(Status) = 3 OUTPUT AVG(POST(Credit))")
        estimator = session.whatif_engine.build_estimator(query)
        estimator.regressor_for(("t", 0), lambda: np.ones(len(estimator.view)))
        assert estimator._factor is None and not eigh_calls

    def test_sampled_estimator_factors_its_sampled_design(self):
        dataset = make_german_syn(400, seed=5)
        config = EngineConfig(regressor="linear", sample_size=150)
        session = HypeR(dataset.database, dataset.causal_dag, config)
        query = parse_query("USE Credit UPDATE(Status) = 3 OUTPUT AVG(POST(Credit))")
        estimator = session.whatif_engine.build_estimator(query)
        target = np.asarray(estimator.view.column_view("Credit"), dtype=float)
        regressor = estimator.regressor_for(("t", 0), lambda: target)
        blocks = [estimator._training_block(a) for a in estimator.feature_attributes]
        design = np.asfortranarray(np.hstack([np.ones((len(blocks[0]), 1)), *blocks]))
        assert design.shape[0] == estimator.n_training_rows == 150
        sampled = target[estimator._train_indices]
        assert np.array_equal(
            estimator._factor.matrix, LinearRegression().factorise(design).matrix
        )
        assert_least_squares(design, sampled, coefficients(regressor._model))


class TestDesignColumns:
    def test_numeric_columns_written_in_place_equal_their_blocks(self):
        columns = {
            "x": np.array([1.5, np.nan, -2.0, 4.0]),
            "c": np.array(["a", "b", None, "a"], dtype=object),
            "y": [3, None, 5, 7],
        }
        encoder = FeatureEncoder.fit_columns(columns)
        design = encoder.design(columns)
        blocks = [encoder.encoders[a].transform(columns[a]) for a in columns]
        assert np.array_equal(design, np.hstack([np.ones((4, 1)), *blocks]))
        assert design[1, 1] == encoder.encoders["x"].fill_value
