"""Tests for feature encoders."""

import math

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.ml import ColumnEncoder, FeatureEncoder
from repro.relational import Relation


class TestColumnEncoder:
    def test_numeric_pass_through(self):
        encoder = ColumnEncoder.fit("X", [1.0, 2.0, 3.0])
        assert encoder.numeric and encoder.width == 1
        assert encoder.transform([4.0]).tolist() == [[4.0]]

    def test_numeric_nulls_filled_with_mean(self):
        encoder = ColumnEncoder.fit("X", [1.0, 3.0, None])
        assert encoder.transform([None]).tolist() == [[2.0]]

    def test_categorical_one_hot(self):
        encoder = ColumnEncoder.fit("C", ["a", "b", "a"])
        assert not encoder.numeric
        assert encoder.width == 2
        assert encoder.transform(["b"]).tolist() == [[0.0, 1.0]]

    def test_unseen_category_encodes_to_zeros(self):
        encoder = ColumnEncoder.fit("C", ["a", "b"])
        assert encoder.transform(["zzz"]).tolist() == [[0.0, 0.0]]
        assert encoder.transform([None]).tolist() == [[0.0, 0.0]]

    def test_all_null_column_rejected(self):
        with pytest.raises(EstimationError):
            ColumnEncoder.fit("C", [None, None])

    def test_transform_value(self):
        encoder = ColumnEncoder.fit("X", [1.0, 2.0])
        assert encoder.transform([5.0]).tolist() == [[5.0]]

    def test_mixed_column_numeric_batch_matches_fit_categories(self):
        # A purely-numeric transform batch drawn from a mixed categorical
        # column must stringify as str(2) == '2', not as the float '2.0'.
        encoder = ColumnEncoder.fit("C", [2, "x", 3])
        assert encoder.categories == ("2", "3", "x")
        assert encoder.transform([2, 3]).tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]


def _is_null(value):
    return value is None or (isinstance(value, float) and math.isnan(value))


# Dyadic values: every sum below is exact, so the expected means are exact in
# any summation order and the comparisons can be bitwise.
NUMERIC_COLUMNS = {
    "float": np.array([0.5, 1.25, 3.0, -2.75, 8.0]),
    "float-nan": np.array([0.5, np.nan, 3.0, np.nan, 8.5]),
    "none": [1.0, None, 2.5, None, 4.5],
    "int-array": np.array([1, 2, 3, 6]),
    "int-list": [1, 2, 3, 6],
    "object-numeric": np.array([1, 2.5, None, 4.5], dtype=object),
}
CATEGORICAL_COLUMNS = {
    "list": ["b", "a", None, "c", "a"],
    "object-array": np.array(["b", "a", None, "c", "a"], dtype=object),
}


def _expect_numeric(values):
    observed = [float(v) for v in values if not _is_null(v)]
    fill = sum(observed) / len(observed)
    return fill, np.array([[fill if _is_null(v) else float(v)] for v in values])


def _expect_one_hot(values):
    categories = tuple(sorted({v for v in values if v is not None}))
    block = np.array([[1.0 if v == c else 0.0 for c in categories] for v in values])
    return categories, block


def _assert_block(encoder, values, expected):
    """``transform`` and ``transform_into`` both give ``expected``, bit for bit,
    and neither shares memory with, nor writes into, the caller's values."""
    before = np.array(values, dtype=object)
    block = encoder.transform(values)
    assert block.shape == expected.shape and np.array_equal(block, expected)
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(block, values)
    width = expected.shape[1]
    design = np.full((len(expected), width + 2), -1.0, order="F")
    encoder.transform_into(values, design[:, 1 : 1 + width])
    assert np.array_equal(design[:, 1 : 1 + width], expected)
    assert (design[:, 0] == -1.0).all() and (design[:, -1] == -1.0).all()
    block[:] = 7.0
    assert all(
        (_is_null(a) and _is_null(b)) or a == b for a, b in zip(before, values)
    )


class TestNullAwareEncoding:
    @pytest.mark.parametrize("values", NUMERIC_COLUMNS.values(), ids=NUMERIC_COLUMNS)
    def test_numeric_fill_and_block(self, values):
        fill, expected = _expect_numeric(values)
        encoder = ColumnEncoder.fit("X", values)
        assert encoder.numeric and encoder.fill_value == fill
        _assert_block(encoder, values, expected)

    @pytest.mark.parametrize("values", CATEGORICAL_COLUMNS.values(), ids=CATEGORICAL_COLUMNS)
    def test_categorical_block(self, values):
        categories, expected = _expect_one_hot(values)
        encoder = ColumnEncoder.fit("C", values)
        assert not encoder.numeric and encoder.categories == categories
        _assert_block(encoder, values, expected)

    def test_design_is_column_major_with_each_block_its_transform(self):
        columns = {"X": NUMERIC_COLUMNS["float-nan"], "C": CATEGORICAL_COLUMNS["list"]}
        encoder = FeatureEncoder.fit_columns(columns)
        design = encoder.design(columns)
        assert design.flags.f_contiguous and (design[:, 0] == 1.0).all()
        for name, offset in encoder.offsets.items():
            width = encoder.encoders[name].width
            block = design[:, 1 + offset : 1 + offset + width]
            assert np.array_equal(block, encoder.encoders[name].transform(columns[name]))


class TestFeatureEncoder:
    @pytest.fixture
    def relation(self):
        return Relation.from_columns(
            "R",
            {"ID": [1, 2, 3], "Price": [10.0, 20.0, 30.0], "Brand": ["a", "b", "a"]},
            key=("ID",),
        )

    def test_fit_from_relation(self, relation):
        encoder = FeatureEncoder.fit(relation, ["Price", "Brand"])
        matrix = encoder.design({a: relation.column_view(a) for a in ("Price", "Brand")})
        assert matrix.shape == (3, 4)  # ones + 1 numeric + 2 one-hot
        assert encoder.offsets == {"Price": 0, "Brand": 1}

    def test_transform_columns_and_rows_agree(self, relation):
        encoder = FeatureEncoder.fit(relation, ["Price", "Brand"])
        columns = {"Price": [15.0, 25.0], "Brand": ["b", "a"]}
        batch = encoder.design(columns)
        for i in range(2):
            row = encoder.design({name: values[i : i + 1] for name, values in columns.items()})
            assert np.array_equal(batch[i : i + 1], row)

    def test_mismatched_column_lengths(self, relation):
        encoder = FeatureEncoder.fit(relation, ["Price", "Brand"])
        with pytest.raises(EstimationError):
            encoder.design({"Price": [1.0, 2.0], "Brand": ["a"]})

    def test_empty_feature_set(self, relation):
        encoder = FeatureEncoder.fit(relation, [])
        assert encoder.design({}).shape == (0, 1)
        assert encoder.width == 0
