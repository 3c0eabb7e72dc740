"""Tests for frequency tables and conditional mean regressors."""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.ml import ConditionalMeanRegressor, FrequencyTable, make_regressor, relative_error
from repro.ml.metrics import mean_absolute_error, mean_squared_error, r2_score


class TestFrequencyTable:
    @pytest.fixture
    def table(self):
        return FrequencyTable.fit(
            {
                "B": [1, 1, 2, 2, 2, 3],
                "C": ["x", "y", "x", "x", "y", "x"],
                "Y": [0, 1, 1, 1, 0, 1],
            }
        )

    def test_counts_and_support(self, table):
        assert len(table) == 6
        assert table.count({"B": 2}) == 3
        assert table.count({"B": 2, "C": "x"}) == 2

    def test_probability(self, table):
        assert table.probability({"Y": 1}, {"B": 2, "C": "x"}) == pytest.approx(1.0)
        assert table.probability({"Y": 1}, {"B": 1}) == pytest.approx(0.5)
        assert table.probability({"Y": 1}) == pytest.approx(4 / 6)

    def test_zero_support_condition_gives_zero(self, table):
        assert table.probability({"Y": 1}, {"B": 99}) == 0.0

    def test_overlapping_condition_rejected(self, table):
        with pytest.raises(EstimationError):
            table.probability({"B": 1}, {"B": 2})

    def test_observed_values_zero_support_index(self, table):
        assert set(table.observed_values("B")) == {1, 2, 3}
        assert set(table.observed_values("C", {"B": 3})) == {"x"}

    def test_conditional_distribution_sums_to_one(self, table):
        given = {"B": 2}
        total = sum(table.probability({"Y": y}, given) for y in table.observed_values("Y", given))
        assert total == pytest.approx(1.0)
        assert table.probability({"Y": 1}, {"B": 42}) == 0.0

    def test_unknown_attribute(self, table):
        with pytest.raises(EstimationError):
            table.count({"Z": 1})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            FrequencyTable.fit({"A": [1, 2], "B": [1]})


class TestConditionalMeanRegressor:
    def test_counterfactual_prediction_linear_truth(self):
        rng = np.random.default_rng(0)
        n = 600
        c = rng.normal(size=n)
        b = 0.5 * c + rng.normal(scale=0.5, size=n)
        y = 2.0 * b + 1.0 * c + rng.normal(scale=0.1, size=n)
        model = ConditionalMeanRegressor(("B", "C"), regressor_kind="linear")
        model.fit({"B": b, "C": c}, y)
        # E[Y | B=2, C=0] should be about 4
        assert model.predict_rows([{"B": 2.0, "C": 0.0}])[0] == pytest.approx(4.0, abs=0.2)

    def test_categorical_features_handled(self):
        model = ConditionalMeanRegressor(("Group",), regressor_kind="linear")
        model.fit({"Group": ["a"] * 50 + ["b"] * 50}, [1.0] * 50 + [3.0] * 50)
        assert model.predict_rows([{"Group": "a"}])[0] == pytest.approx(1.0, abs=0.05)
        assert model.predict_rows([{"Group": "b"}])[0] == pytest.approx(3.0, abs=0.05)

    def test_no_features_predicts_mean(self):
        model = ConditionalMeanRegressor(())
        model.fit({}, [1.0, 2.0, 3.0])
        assert model.predict_rows([{}, {}]).tolist() == [2.0, 2.0]

    def test_missing_training_column(self):
        model = ConditionalMeanRegressor(("B",))
        with pytest.raises(EstimationError):
            model.fit({"C": [1.0]}, [1.0])

    def test_forest_backend(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(0, 1, size=300)
        y = np.where(b > 0.5, 5.0, 0.0)
        model = ConditionalMeanRegressor(
            ("B",), regressor_kind="forest", regressor_params={"n_estimators": 8, "max_depth": 4}
        )
        model.fit({"B": b}, y)
        assert model.predict_rows([{"B": 0.9}])[0] > model.predict_rows([{"B": 0.1}])[0]

    def test_predict_columns(self):
        model = ConditionalMeanRegressor(("B",), regressor_kind="linear")
        model.fit({"B": [0.0, 1.0, 2.0, 3.0]}, [0.0, 2.0, 4.0, 6.0])
        out = model.predict_rows([{"B": 1.5}, {"B": 2.5}])
        assert out.tolist() == pytest.approx([3.0, 5.0], abs=1e-6)


class TestFactoriesAndMetrics:
    def test_make_regressor_kinds(self):
        assert make_regressor("forest").__class__.__name__ == "RandomForestRegressor"
        assert make_regressor("linear").__class__.__name__ == "LinearRegression"
        assert make_regressor("ridge").__class__.__name__ == "RidgeRegression"
        with pytest.raises(EstimationError):
            make_regressor("svm")

    def test_metrics(self):
        assert mean_squared_error([1, 2], [1, 4]) == pytest.approx(2.0)
        assert mean_absolute_error([1, 2], [1, 4]) == pytest.approx(1.0)
        assert r2_score([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert r2_score([1, 1, 1], [1, 1, 1]) == 1.0
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.5, 0.0) > 1.0
        with pytest.raises(EstimationError):
            mean_squared_error([], [])
        with pytest.raises(EstimationError):
            mean_squared_error([1], [1, 2])
