"""The relational layer at its edges: nulls and objects in the kernels, wire
buffers with nulls, and every refusal with the error that names it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DomainError, ExpressionError, SchemaError
from repro.relational import (
    AttributeSpec,
    CategoricalDomain,
    Column,
    Database,
    Expr,
    ForeignKey,
    IntegerDomain,
    NumericDomain,
    Relation,
    RelationSchema,
    col,
    evaluate_mask,
    evaluate_predicate,
    lit,
    make_disjoint,
    to_dnf,
)
from repro.relational.columnar import (
    factorize_columns,
    grouped_aggregate,
    numeric_data,
    store_from_buffers,
    store_to_buffers,
    vectorized_mask,
)


@pytest.fixture
def mixed():
    return Relation.from_columns(
        "T",
        {
            "ID": [1, 2, 3, 4],
            "Price": [999.0, None, 15.99, 0.0],
            "Category": ["Laptop", "Camera", None, ""],
        },
        key=("ID",),
    )


# -- masks over nulls and objects ----------------------------------------------


@pytest.mark.parametrize(
    "predicate, expected",
    [
        (col("Price") == lit(None), [False] * 4),  # a NULL constant matches nothing
        (col("Price") & lit(True), [True, False, True, False]),  # numeric truthiness
        (col("Category") | lit(False), [True, True, False, False]),  # object truthiness
        (col("Price") == col("Category"), [False] * 4),  # number against object
    ],
)
def test_a_mask_over_nulls_and_objects_is_the_per_row_answer(mixed, predicate, expected):
    assert evaluate_mask(predicate, mixed).tolist() == expected


def test_object_arithmetic_runs_per_value():
    words = Relation.from_columns("W", {"ID": [1, 2], "Word": ["Camera", "Lens"]}, key=("ID",))
    assert evaluate_mask((col("Word") + "s") == "Cameras", words).tolist() == [True, False]


@pytest.mark.parametrize(
    "predicate, message",
    [
        (col("Category") < 1, "cannot compare"),
        ((col("Category") * 2.5) > 0, "cannot apply '\\*'"),
    ],
)
def test_incomparable_values_are_an_expression_error(mixed, predicate, message):
    with pytest.raises(ExpressionError, match=message):
        evaluate_mask(predicate, mixed)


def test_a_row_comparison_of_incomparable_values_is_an_expression_error():
    with pytest.raises(ExpressionError, match="cannot compare 'Laptop' < 1"):
        evaluate_predicate(col("Category") < 1, {"Category": "Laptop"})


def test_an_unknown_node_or_column_cannot_be_vectorized(mixed):
    class Odd(Expr):
        pass

    store = mixed.columnar_store()
    with pytest.raises(ExpressionError, match="cannot vectorize expression node"):
        vectorized_mask(Odd(), store, store)
    assert "Price" in store and "Nope" not in store
    with pytest.raises(ExpressionError, match="'Nope' is not available"):
        store["Nope"]


def test_expressions_build_from_the_left_and_hash_by_their_text():
    assert repr(1 + col("X")) == repr(lit(1) + col("X"))
    assert hash(col("X") > 1) == hash(col("X") > 1)
    # a literal that is hashable stays itself in the key, one that is not is its repr
    assert lit(frozenset({1})).canonical() != lit(frozenset({2})).canonical()
    assert lit({"a": 1}).canonical() == lit({"a": 1}).canonical()


def test_normal_forms_stop_at_their_term_budget():
    wide = col("A") == 1
    for value in range(2, 6):
        wide = wide | (col("A") == value)
    with pytest.raises(ExpressionError, match="DNF conversion exceeded"):
        to_dnf(wide, max_terms=2)
    with pytest.raises(ExpressionError, match="DNF conversion exceeded"):
        to_dnf(wide & wide, max_terms=6)
    with pytest.raises(ExpressionError, match="disjointness rewriting exceeded"):
        make_disjoint([col("A") == v for v in range(4)], max_terms=2)


# -- kernels and wire buffers ---------------------------------------------------


def test_a_store_with_nulls_and_objects_round_trips_through_buffers(mixed):
    store = mixed.columnar_store()
    header, buffers = store_to_buffers(store)
    back = store_from_buffers(header, [np.asarray(b).copy() for b in buffers])
    for name, column in store.columns.items():
        assert back[name].null.tolist() == column.null.tolist()
        assert [v for v, n in zip(back[name].data, back[name].null) if not n] == [
            v for v, n in zip(column.data, column.null) if not n
        ]


def test_kernels_refuse_what_they_cannot_aggregate():
    words = Column.from_values(["a", "b"])
    with pytest.raises(ExpressionError, match="cannot aggregate non-numeric values for X"):
        numeric_data(words, "X")
    assert numeric_data(Column.from_values(["1", None]), "X")[0] == 1.0
    with pytest.raises(ExpressionError, match="unsupported aggregate 'max'"):
        grouped_aggregate(Column.from_values([1.0]), np.array([0]), 1, "max")
    with pytest.raises(SchemaError, match="needs at least one column"):
        factorize_columns([])


# -- schemas, domains, relations ------------------------------------------------


def test_schemas_refuse_empty_names_and_unknown_attributes():
    with pytest.raises(SchemaError, match="attribute names must be non-empty"):
        AttributeSpec("", NumericDomain())
    with pytest.raises(SchemaError, match="relation name must be non-empty"):
        RelationSchema("", [AttributeSpec("K", NumericDomain())], key=("K",))
    parent = Relation.from_columns("P", {"K": [1]}, key=("K",))
    child = Relation.from_columns("C", {"K": [1], "PK": [1]}, key=("K",))
    with pytest.raises(SchemaError, match="unknown attributes \\['Nope'\\] of 'P'"):
        Database([parent, child], [ForeignKey("C", ("PK",), "P", ("Nope",))])
    database = Database([parent, child])
    with pytest.raises(SchemaError, match="relation 'P' has no attribute 'Nope'"):
        database.schema.resolve_attribute("P.Nope")
    assert parent.schema != "P"
    with pytest.raises(SchemaError, match="relation 'P' has no column 'Nope'"):
        parent.column_view("Nope")


def test_domains_check_validate_and_sample():
    rng = np.random.default_rng(0)
    assert NumericDomain(0.0, 1.0).validate(0.5) == 0.5
    with pytest.raises(DomainError, match="unbounded"):
        NumericDomain().sample(rng)
    with pytest.raises(DomainError, match="low=3 > high=1"):
        IntegerDomain(3, 1)
    assert IntegerDomain(1, 3).is_finite
    drawn = CategoricalDomain(["a", "b"]).sample(rng, size=5)
    assert drawn.dtype == object and set(drawn) <= {"a", "b"}


# -- views ------------------------------------------------------------------------


@pytest.fixture
def shop():
    products = Relation.from_columns("P", {"PID": [1, 2], "Price": [5.0, 7.0]}, key=("PID",))
    reviews = Relation.from_columns(
        "R", {"RID": [1, 2, 3], "PID": [1, 1, 2], "Stars": [4.0, 2.0, 5.0]}, key=("RID",)
    )
    return Database([products, reviews], [ForeignKey("R", ("PID",), "P", ("PID",))])


def test_a_view_keeps_the_key_and_joins_by_the_schemas_link(shop):
    from repro.relational import AggregatedAttribute, UseSpec

    use = UseSpec("P", attributes=["Price"], aggregated=[AggregatedAttribute("Mean", "R", "Stars", "avg")])
    assert use.view_attribute_names(shop) == ["PID", "Price", "Mean"]
    assert list(use.build(shop).column_view("Mean")) == [3.0, 5.0]
    lonely = Database([shop["P"], Relation.from_columns("Q", {"QID": [1], "X": [1.0]}, key=("QID",))])
    with pytest.raises(Exception, match="no foreign key links relation 'Q' to the base relation 'P'"):
        UseSpec("P", aggregated=[AggregatedAttribute("M", "Q", "X", "avg")]).build(lonely)
    for joins, message in (
        ({"R": [("Nope", "PID")]}, "join attribute 'Nope' missing from 'P'"),
        ({"R": [("PID", "Nope")]}, "join attribute 'Nope' missing from 'R'"),
    ):
        with pytest.raises(SchemaError, match=message):
            UseSpec("P", aggregated=[AggregatedAttribute("M", "R", "Stars", "avg")], joins=joins).build(shop)


def test_a_non_boolean_node_has_no_normal_form():
    with pytest.raises(ExpressionError, match="cannot normalise expression node"):
        to_dnf(col("A") + 1)
