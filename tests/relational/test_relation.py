"""Tests for the column-store Relation."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational import (
    AttributeSpec,
    CategoricalDomain,
    IntegerDomain,
    NumericDomain,
    Relation,
    RelationSchema,
    col,
    evaluate_mask,
)


@pytest.fixture
def schema():
    return RelationSchema(
        "Items",
        [
            AttributeSpec("ID", IntegerDomain(1, 100), mutable=False),
            AttributeSpec("Price", NumericDomain(0.0, 1000.0)),
            AttributeSpec("Color", CategoricalDomain(["red", "blue", "green"])),
        ],
        key=("ID",),
    )


@pytest.fixture
def relation(schema):
    return Relation(
        schema,
        {
            "ID": [1, 2, 3, 4],
            "Price": [10.0, 20.0, 30.0, 40.0],
            "Color": ["red", "blue", "red", "green"],
        },
    )


class TestConstruction:
    def test_from_rows_round_trip(self, schema, relation):
        rebuilt = Relation.from_rows(schema, list(relation.rows()))
        assert rebuilt.to_dict() == relation.to_dict()

    def test_missing_column_raises(self, schema):
        with pytest.raises(SchemaError, match="missing columns"):
            Relation(schema, {"ID": [1], "Price": [1.0]})

    def test_extra_column_raises(self, schema):
        with pytest.raises(SchemaError, match="unknown columns"):
            Relation(schema, {"ID": [1], "Price": [1.0], "Color": ["red"], "X": [1]})

    def test_unequal_lengths_raise(self, schema):
        with pytest.raises(SchemaError, match="unequal"):
            Relation(schema, {"ID": [1, 2], "Price": [1.0], "Color": ["red"]})

    def test_domain_violation_raises(self, schema):
        with pytest.raises(SchemaError, match="violates"):
            Relation(schema, {"ID": [1], "Price": [1.0], "Color": ["purple"]})

    def test_duplicate_keys_raise(self, schema):
        with pytest.raises(SchemaError, match="duplicate key"):
            Relation(schema, {"ID": [1, 1], "Price": [1.0, 2.0], "Color": ["red", "red"]})

    def test_from_columns_infers_schema(self):
        rel = Relation.from_columns("R", {"K": [1, 2], "V": [1.5, 2.5]}, key=("K",))
        assert rel.schema.key == ("K",)
        assert len(rel) == 2


class TestAccess:
    def test_row_and_key(self, relation):
        assert relation.row(0) == {"ID": 1, "Price": 10.0, "Color": "red"}
        assert relation.key_of(2) == (3,)
        assert list(relation.iter_keys()) == [(1,), (2,), (3,), (4,)]

    def test_row_out_of_range(self, relation):
        with pytest.raises(IndexError):
            relation.row(10)

    def test_column_returns_copy(self, relation):
        column = relation.column("Price")
        column[0] = 999.0
        assert relation.column_view("Price")[0] == 10.0

    def test_unknown_column_raises(self, relation):
        with pytest.raises(SchemaError):
            relation.column("Nope")


class TestTransformations:
    def test_filter_by_mask(self, relation):
        filtered = relation.filter([True, False, True, False])
        assert len(filtered) == 2
        assert list(filtered.column_view("ID")) == [1, 3]

    def test_filter_bad_mask_shape(self, relation):
        with pytest.raises(SchemaError):
            relation.filter([True, False])

    def test_take_and_head(self, relation):
        taken = relation.take([3, 0])
        assert list(taken.column_view("ID")) == [4, 1]
        assert len(relation.head(2)) == 2

    def test_take_negative_indices_keep_colstore_aligned(self, relation):
        """Negative (numpy-style) take indices must not become nulls in the store."""
        relation.columnar_store()  # force the cached store so take() derives it
        taken = relation.take([-1, 0])
        assert list(taken.rows())[0]["ID"] == 4
        assert evaluate_mask(col("ID") == 4, taken).tolist() == [True, False]
        with pytest.raises(IndexError):
            relation.take([-5])
        with pytest.raises(IndexError):
            relation.take([4])

    def test_sample(self, relation):
        sampled = relation.sample(2, np.random.default_rng(0))
        assert len(sampled) == 2

    def test_project(self, relation):
        projected = relation.project(["ID", "Price"])
        assert projected.attribute_names == ("ID", "Price")
        with pytest.raises(SchemaError):
            relation.project(["Price"])  # drops the key

    def test_with_column_replaces_and_adds(self, relation):
        doubled = relation.with_column("Price", [v * 2 for v in relation.column_view("Price")])
        assert list(doubled.column_view("Price")) == [20.0, 40.0, 60.0, 80.0]
        extended = relation.with_column("Discount", [0.1] * 4)
        assert "Discount" in extended.schema
        # the original is untouched
        assert "Discount" not in relation.schema

    def test_with_column_overwrite_keeps_the_schema(self, relation):
        for name in ("Price", "Color"):  # a middle column and the last one
            same = relation.with_column(name, list(relation.column_view(name)))
            assert same.schema == relation.schema
            assert same.attribute_names == relation.attribute_names
            assert list(same.rows()) == list(relation.rows())
        halved = relation.with_column("Price", [v / 2 for v in relation.column_view("Price")])
        assert halved.attribute_names == relation.attribute_names
        assert list(halved.column_view("Price")) == [5.0, 10.0, 15.0, 20.0]
        restored = halved.with_column("Price", list(relation.column_view("Price")))
        assert restored.schema == relation.schema
        assert list(restored.rows()) == list(relation.rows())

    def test_with_column_shares_the_untouched_columns(self, relation):
        doubled = relation.with_column("Price", [v * 2 for v in relation.column_view("Price")])
        for name in ("ID", "Color"):
            assert doubled.column_view(name) is relation.column_view(name)
        assert doubled.column_view("Price") is not relation.column_view("Price")
        assert list(relation.column_view("Price")) == [10.0, 20.0, 30.0, 40.0]
        # column() still hands out a copy, so a shared array is never written
        copied = doubled.column("ID")
        copied[0] = 99
        assert doubled.column_view("ID")[0] == relation.column_view("ID")[0] == 1

    def test_project_shares_the_columns(self, relation):
        store = relation.columnar_store()
        projected = relation.project(["ID", "Price"])
        for name in ("ID", "Price"):
            assert projected.column_view(name) is relation.column_view(name)
            assert projected.columnar_store()[name] is store[name]
        # column() still hands out a copy, so a shared array is never written
        copied = projected.column("Price")
        copied[0] = 99.0
        assert relation.column_view("Price")[0] == projected.column_view("Price")[0] == 10.0

    def test_with_column_wrong_length(self, relation):
        with pytest.raises(SchemaError):
            relation.with_column("Price", [1.0])

    def test_pretty_rendering(self, relation):
        text = relation.pretty(limit=2)
        assert "ID | Price | Color" in text
        assert "more rows" in text


def test_string_ndarray_column_stays_categorical():
    """A str-dtype ndarray column must not be coerced through the float fast path."""
    relation = Relation.from_columns(
        "T", {"ID": [1, 2], "S": np.array(["a", "b"])}, key=("ID",)
    )
    assert list(relation.column_view("S")) == ["a", "b"]
    assert evaluate_mask(col("S") == "a", relation).tolist() == [True, False]


def _as_column_by_value(values):
    """The value-by-value sniff ``_as_column`` used to run, kept as the oracle."""
    values = list(values)
    is_numeric = all(
        isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        for v in values
    )
    if values and is_numeric:
        return np.asarray(values, dtype=float)
    return np.asarray(values, dtype=object)


@pytest.mark.parametrize(
    "values",
    [
        [1, 2, 3],
        [1.5, 2, np.int64(3), np.float32(0.25), np.uint8(7)],
        [float("nan"), 1.0],
        [],
        [True, False],
        [1, True],
        [np.bool_(True), 1.0],
        [1.0, None],
        [None, None],
        ["a", "b"],
        [1, "b"],
        [1.0, (2, 3)],
        (1, 2.5),
        range(4),
        [v for v in (0.0, 1.0, 2.0) for _ in range(1000)],
    ],
    ids=lambda values: repr(values)[:40],
)
def test_as_column_sniffs_types_like_the_value_by_value_rule(values):
    from repro.relational.relation import _as_column

    got, expected = _as_column(values), _as_column_by_value(values)
    assert got.dtype == expected.dtype
    if got.dtype == object:
        assert got.tolist() == expected.tolist()
    else:
        assert np.array_equal(got, expected, equal_nan=True)
