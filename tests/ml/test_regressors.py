"""Tests for the linear, tree and forest regressors."""

import pickle

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.ml import (
    DecisionTreeRegressor,
    LinearRegression,
    RandomForestRegressor,
    RidgeRegression,
    mean_squared_error,
    r2_score,
)


RNG = np.random.default_rng(0)


def linear_data(n=400, noise=0.1):
    x = RNG.uniform(-2, 2, size=(n, 2))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 1.0 + RNG.normal(0, noise, size=n)
    return x, y


def step_data(n=500):
    x = RNG.uniform(0, 1, size=(n, 1))
    y = np.where(x[:, 0] > 0.5, 10.0, 0.0) + RNG.normal(0, 0.1, size=n)
    return x, y


class TestLinearRegression:
    def test_recovers_coefficients(self):
        x, y = linear_data()
        model = LinearRegression().fit(x, y)
        assert model.coefficients == pytest.approx([3.0, -2.0], abs=0.05)
        assert model.intercept == pytest.approx(1.0, abs=0.05)

    def test_shifted_target_moves_only_the_intercept(self):
        x, y = linear_data()
        base = LinearRegression().fit(x, y)
        shifted = LinearRegression().fit(x, y + 5.0)
        assert shifted.coefficients == pytest.approx(base.coefficients, abs=1e-9)
        assert shifted.intercept - base.intercept == pytest.approx(5.0, abs=1e-9)

    def test_predict_before_fit_raises(self):
        with pytest.raises(EstimationError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(EstimationError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))
        model = LinearRegression().fit(*linear_data(50))
        with pytest.raises(EstimationError):
            model.predict(np.zeros((1, 5)))

    def test_zero_rows_raise(self):
        with pytest.raises(EstimationError):
            LinearRegression().fit(np.zeros((0, 2)), np.zeros(0))

    def test_1d_features_accepted(self):
        x = np.linspace(0, 1, 50)
        y = 2 * x + 3
        model = LinearRegression().fit(x, y)
        assert model.predict(np.array([0.5]))[0] == pytest.approx(4.0, abs=1e-6)

    def test_ridge_shrinks_towards_zero(self):
        x, y = linear_data(100)
        ols = LinearRegression().fit(x, y)
        ridge = RidgeRegression(alpha=100.0).fit(x, y)
        assert abs(ridge.coefficients[0]) < abs(ols.coefficients[0])

    def test_ridge_negative_alpha_rejected(self):
        with pytest.raises(EstimationError):
            RidgeRegression(alpha=-1.0).fit(*linear_data(20))


class TestDecisionTree:
    def test_learns_step_function(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=5).fit(x, y)
        predictions = tree.predict(np.array([[0.25], [0.75]]))
        assert predictions[0] == pytest.approx(0.0, abs=0.5)
        assert predictions[1] == pytest.approx(10.0, abs=0.5)

    def test_constant_target_gives_single_leaf(self):
        x = RNG.uniform(size=(50, 2))
        y = np.full(50, 7.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.depth() == 0
        assert tree.predict(x)[0] == pytest.approx(7.0)

    def test_depth_limit_respected(self):
        x, y = linear_data(300, noise=0.0)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1, min_samples_split=2).fit(x, y)
        assert tree.depth() <= 2

    def test_predict_validates_width(self):
        tree = DecisionTreeRegressor().fit(*step_data())
        with pytest.raises(EstimationError):
            tree.predict(np.zeros((1, 3)))

    def test_unfitted_errors(self):
        with pytest.raises(EstimationError):
            DecisionTreeRegressor().predict(np.zeros((1, 1)))
        with pytest.raises(EstimationError):
            DecisionTreeRegressor().depth()


class TestRandomForest:
    def test_beats_single_shallow_tree_on_noisy_data(self):
        x, y = linear_data(500, noise=1.0)
        x_test, y_test = linear_data(200, noise=0.0)
        forest = RandomForestRegressor(n_estimators=15, max_depth=5, random_state=0).fit(x, y)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert mean_squared_error(y_test, forest.predict(x_test)) <= mean_squared_error(
            y_test, tree.predict(x_test)
        )

    def test_reasonable_r2_on_linear_signal(self):
        x, y = linear_data(600, noise=0.2)
        forest = RandomForestRegressor(n_estimators=10, max_depth=6, random_state=1).fit(x, y)
        assert r2_score(y, forest.predict(x)) > 0.8

    def test_deterministic_given_seed(self):
        x, y = linear_data(200)
        a = RandomForestRegressor(n_estimators=5, random_state=42).fit(x, y).predict(x[:10])
        b = RandomForestRegressor(n_estimators=5, random_state=42).fit(x, y).predict(x[:10])
        assert np.allclose(a, b)

    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            RandomForestRegressor(n_estimators=0).fit(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(EstimationError):
            RandomForestRegressor(max_features="bogus").fit(np.ones((5, 2)), np.ones(5))
        with pytest.raises(EstimationError):
            RandomForestRegressor().predict(np.zeros((1, 1)))

    def test_trees_fit_on_bootstrap_resamples(self):
        x, y = linear_data(120)
        forest = RandomForestRegressor(
            n_estimators=2, max_depth=4, max_features="all", random_state=7
        ).fit(x, y)
        rng = np.random.default_rng(7)
        idx = rng.integers(0, len(x), size=len(x))
        first = DecisionTreeRegressor(
            max_depth=4,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=None,
            n_thresholds=forest.n_thresholds,
            random_state=int(rng.integers(0, 2**31 - 1)),
        ).fit(x[idx], y[idx])
        assert len(np.unique(idx)) < len(x)
        assert np.array_equal(forest._trees[0].predict(x), first.predict(x))

    def test_max_features_settings(self):
        x, y = linear_data(100)
        for setting in ("sqrt", "log2", "all", None, 1):
            forest = RandomForestRegressor(n_estimators=3, max_features=setting, random_state=0)
            forest.fit(x, y)
            assert len(forest._trees) == 3


# -- array trees == the node-walking oracle ----------------------------------------------


class _Node:
    """The node of the tree as it was before it became five arrays."""

    def __init__(self, tree, index=0):
        self.value = float(tree._value[index])
        self.feature = int(tree._feature[index]) if tree._feature[index] >= 0 else None
        self.threshold = float(tree._threshold[index])
        self.left = self.right = None
        if self.feature is not None:
            self.left = _Node(tree, int(tree._left[index]))
            self.right = _Node(tree, int(tree._right[index]))

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _predict_row(root, row: np.ndarray) -> float:
    """``DecisionTreeRegressor._predict_row`` of the parent commit, verbatim."""
    node = root
    assert node is not None
    while not node.is_leaf:
        assert node.left is not None and node.right is not None
        if row[node.feature] <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node.value


def _oracle_tree_predict(tree, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    root = _Node(tree)
    return np.array([_predict_row(root, row) for row in features])


def _oracle_depth(node) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(_oracle_depth(node.left), _oracle_depth(node.right))


def _seeded_case(seed: int):
    """Training data with a non-constant target and hostile rows to predict at."""
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(30, 200)), int(rng.integers(1, 5))
    x = rng.normal(size=(n, width)).round(int(rng.integers(0, 3)))  # ties when rounded
    y = x @ rng.normal(size=width) + np.where(x[:, 0] > 0, 2.0, -1.0) + rng.normal(0, 0.1, n)
    probe = rng.normal(size=(80, width)) * 2
    probe[rng.random(probe.shape) < 0.1] = np.nan
    probe[rng.random(probe.shape) < 0.05] = np.inf
    probe[rng.random(probe.shape) < 0.05] = -np.inf
    return x, y, np.vstack([x[:20], probe])


class TestArrayTreeEqualsNodeWalk:
    @pytest.mark.parametrize("seed", range(200))
    def test_tree_and_forest_predictions(self, seed):
        x, y, probe = _seeded_case(seed)
        max_depth = (1, 2, 3, 8)[seed % 4]  # depth-limited and free-growing trees
        tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_split=4, min_samples_leaf=2,
            max_features=None if seed % 3 else 1, random_state=seed,
        ).fit(x, y)
        assert tree.depth() == _oracle_depth(_Node(tree)) <= max_depth
        assert tree.depth() >= 1  # the target is not constant: a real descent
        expected = _oracle_tree_predict(tree, probe)
        assert np.array_equal(tree.predict(probe), expected)
        assert np.array_equal(pickle.loads(pickle.dumps(tree)).predict(probe), expected)

        forest = RandomForestRegressor(
            n_estimators=3, max_depth=max_depth, min_samples_split=4, min_samples_leaf=2,
            random_state=seed,
        ).fit(x, y)
        by_walk = np.zeros(len(probe))
        for member in forest._trees:
            by_walk += _oracle_tree_predict(member, probe)
        assert np.array_equal(forest.predict(probe), by_walk / 3)
        assert np.array_equal(pickle.loads(pickle.dumps(forest)).predict(probe), by_walk / 3)

    def test_single_leaf_tree(self):
        x = RNG.uniform(size=(40, 3))
        tree = DecisionTreeRegressor().fit(x, np.full(40, 2.5))
        assert len(tree._value) == 1 and tree.depth() == 0
        probe = np.array([[np.nan, np.inf, -np.inf], [0.0, 0.0, 0.0]])
        assert tree.predict(probe).tolist() == [2.5, 2.5]
        assert np.array_equal(tree.predict(probe), _oracle_tree_predict(tree, probe))

    def test_one_dimensional_input(self):
        x, y = step_data(120)
        tree = DecisionTreeRegressor(max_depth=3).fit(x[:, 0], y)
        probe = np.array([0.1, 0.4, np.nan, 0.6, np.inf, -np.inf])
        assert np.array_equal(tree.predict(probe), _oracle_tree_predict(tree, probe))

    def test_a_pickled_tree_is_its_arrays(self):
        tree = DecisionTreeRegressor(max_depth=3).fit(*step_data(120))
        state = pickle.loads(pickle.dumps(tree)).__dict__
        assert "_root" not in state
        for name in ("_feature", "_threshold", "_left", "_right", "_value"):
            assert isinstance(state[name], np.ndarray) and len(state[name]) == len(tree._value)
