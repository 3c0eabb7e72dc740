"""The relational contract of :mod:`repro.relational`, pinned two ways.

* Predicate masks are checked against the per-row evaluator
  (:func:`evaluate_predicate` over an ``EvaluationContext``): a Hypothesis
  property over generated relations with nulls, int/float mixes and
  categoricals, plus the fixed predicates of the contract's examples.
* Joins, group-bys and the ``Use`` aggregation are checked against a table of
  expected outputs written out by hand: row order, ``None`` padding, Python
  key equality (``2 == 2.0``), null keys and the empty aggregate.
"""

from __future__ import annotations

from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_amazon_syn, make_german_syn
from repro.exceptions import ExpressionError
from repro.relational import (
    AggregatedAttribute,
    Arithmetic,
    Attr,
    BooleanExpr,
    CategoricalDomain,
    Comparison,
    Const,
    Database,
    ForeignKey,
    InSet,
    Not,
    NumericDomain,
    Relation,
    Temporal,
    UseSpec,
    col,
    equi_join,
    evaluate_mask,
    evaluate_predicate,
    group_by,
    lit,
    post,
    pre,
    project,
    select,
)


def per_row_mask(predicate, relation, post_relation=None) -> list[bool]:
    post_rows = post_relation.rows() if post_relation is not None else repeat(None)
    return [evaluate_predicate(predicate, r, q) for r, q in zip(relation.rows(), post_rows)]


def rows_of(relation: Relation) -> list[tuple]:
    return [tuple(row.values()) for row in relation.rows()]


# -- masks against the per-row evaluator: the contract's examples -------------


@pytest.fixture
def mixed():
    """Numeric, categorical and nullable columns side by side."""
    return Relation.from_columns(
        "T",
        {
            "ID": [1, 2, 3, 4, 5, 6],
            "Price": [999.0, 529.0, None, 549.0, 15.99, 549.0],
            "Category": ["Laptop", "Laptop", "Camera", None, "eBook", "Camera"],
            "Rating": [2, 4, 1, 5, None, 3],
        },
        key=("ID",),
    )


PREDICATES = [
    col("Price") > 500,
    col("Price") <= 549.0,
    col("Category") == "Laptop",
    col("Category") != "Laptop",
    ~(col("Category") == "Camera"),
    (col("Price") > 500) & (col("Rating") >= 3),
    (col("Category") == "eBook") | (col("Rating") == 1),
    col("Category") < "Laptop",
    col("Category") >= "Camera",
    col("Category").isin(["Laptop", "eBook"]),
    col("Category").isin([None, "Camera"]),
    col("Rating").isin([1, 2, 3]),
    # arithmetic over a null-free column; over NULL see the divergence test
    (col("ID") * 2 + 1) > 7,
    (10 - col("ID")) / 2 >= 3,
    pre("Price") == post("Price"),
    lit(True),
    lit(False),
    ~col("Price").isin([549.0]),
]


@pytest.mark.parametrize("predicate", PREDICATES, ids=[repr(p) for p in PREDICATES])
def test_mask_equals_the_per_row_evaluator(mixed, predicate):
    assert evaluate_mask(predicate, mixed).tolist() == per_row_mask(predicate, mixed)


POST_PREDICATES = [
    post("Price") > 500,
    pre("Price") > post("Price"),
    post("Price") == pre("Rating"),
    (post("Price") == 549.0) & (pre("Rating") >= 3),
]


@pytest.mark.parametrize("predicate", POST_PREDICATES, ids=[repr(p) for p in POST_PREDICATES])
def test_post_relation_masks_equal_the_per_row_evaluator(mixed, predicate):
    after = mixed.with_column("Price", [100.0, 600.0, 700.0, 549.0, None, 10.0])
    assert evaluate_mask(predicate, mixed, after).tolist() == per_row_mask(predicate, mixed, after)


def test_arithmetic_over_null_is_the_documented_divergence(mixed):
    """The per-row evaluator raises on NULL arithmetic; the mask is False there."""
    predicate = (col("Price") * 2) > 1000
    with pytest.raises(ExpressionError):
        per_row_mask(predicate, mixed)
    assert evaluate_mask(predicate, mixed).tolist() == [True, True, False, True, False, True]


DATASETS = pytest.mark.parametrize(
    "make", [make_german_syn, make_amazon_syn], ids=["german", "amazon"]
)


@DATASETS
def test_dataset_views_keep_the_base_rows(make):
    """Each Use view holds its base relation's rows, in order."""
    dataset = make(150, seed=11)
    view = dataset.default_use.build(dataset.database)
    base = dataset.database[dataset.default_use.base_relation]
    assert [row[a] for row in view.rows() for a in base.attribute_names] == [
        row[a] for row in base.rows() for a in base.attribute_names
    ]


@DATASETS
def test_dataset_view_masks_equal_the_per_row_evaluator(make):
    """On each Use view, one equality mask per attribute, value from its data."""
    dataset = make(150, seed=11)
    view = dataset.default_use.build(dataset.database)
    for attribute in view.attribute_names:
        sample = next((v for v in view.column_view(attribute) if v is not None), None)
        predicate = col(attribute) == sample
        assert evaluate_mask(predicate, view).tolist() == per_row_mask(predicate, view), attribute


# -- masks against the per-row evaluator: generated relations and predicates --

NUMBERS = st.sampled_from([-2, -1, 0, 1, 2, 3, 0.5, 1.0, 2.0, 2.5])
CATEGORIES = st.sampled_from(["a", "b", "c", "d"])
TEMPORALS = st.sampled_from([Temporal.DEFAULT, Temporal.PRE, Temporal.POST])


@st.composite
def relation_pairs(draw):
    """A relation and, or not, a post copy replacing its ``Num`` and ``Cat``.

    ``Num`` mixes ints, floats and nulls, ``Fixed`` ints and floats without a
    null (arithmetic runs over it only); ``Cat`` is a nullable categorical."""
    n = draw(st.integers(1, 10))
    nullable_numbers = st.lists(st.none() | NUMBERS, min_size=n, max_size=n)
    nullable_categories = st.lists(st.none() | CATEGORIES, min_size=n, max_size=n)
    relation = Relation.from_columns(
        "G",
        {
            "ID": list(range(n)),
            "Num": draw(nullable_numbers),
            "Fixed": draw(st.lists(NUMBERS, min_size=n, max_size=n)),
            "Cat": draw(nullable_categories),
        },
        key=("ID",),
        # declared, so that a column of nulls only is a relation too
        domains={"Num": NumericDomain(-3.0, 3.0), "Cat": CategoricalDomain(["a", "b", "c", "d"])},
    )
    if not draw(st.booleans()):
        return relation, None
    after = relation.with_column("Num", draw(nullable_numbers))
    return relation, after.with_column("Cat", draw(nullable_categories))


NUMERIC = st.one_of(
    st.builds(Const, NUMBERS),
    st.builds(Attr, st.sampled_from(["Num", "Fixed", "ID"]), TEMPORALS),
    st.builds(
        Arithmetic,
        st.builds(Attr, st.sampled_from(["Fixed", "ID"]), TEMPORALS),
        st.sampled_from(["+", "-", "*"]),
        st.builds(Const, NUMBERS),
    ),
    # a non-zero divisor: the per-row evaluator raises on division by zero
    st.builds(
        Arithmetic,
        st.builds(Attr, st.just("Fixed"), TEMPORALS),
        st.just("/"),
        st.builds(Const, st.sampled_from([-2, 0.5, 4])),
    ),
)
CATEGORY = st.builds(Attr, st.just("Cat"), TEMPORALS)
OPERATORS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
ATOMS = st.one_of(
    st.builds(Comparison, NUMERIC, OPERATORS, NUMERIC),
    st.builds(Comparison, CATEGORY, OPERATORS, CATEGORY | st.builds(Const, CATEGORIES)),
    st.builds(InSet, NUMERIC, st.lists(st.none() | NUMBERS, max_size=4)),
    st.builds(InSet, CATEGORY, st.lists(st.none() | CATEGORIES, max_size=4)),
    st.builds(Const, st.booleans()),
)
PREDICATE_TREES = st.recursive(
    ATOMS,
    lambda children: st.builds(Not, children)
    | st.builds(BooleanExpr, st.sampled_from(["and", "or"]), st.lists(children, min_size=1, max_size=3)),
    max_leaves=6,
)


@given(relation_pairs(), PREDICATE_TREES)
@settings(max_examples=300, deadline=None)
def test_generated_masks_equal_the_per_row_evaluator(pair, predicate):
    relation, after = pair
    assert evaluate_mask(predicate, relation, after).tolist() == per_row_mask(
        predicate, relation, after
    )


# -- the contract table: expected outputs written out by hand ----------------


def test_select_keeps_rows_in_order_and_project_renames(mixed):
    assert rows_of(select(mixed, col("Price") > 500)) == [
        (1, 999.0, "Laptop", 2),
        (2, 529.0, "Laptop", 4),
        (4, 549.0, None, 5),
        (6, 549.0, "Camera", 3),
    ]
    assert len(select(mixed, col("Price") > 10_000)) == 0
    projected = project(mixed, ["ID", "Price"], name="Prices")
    assert (projected.name, projected.attribute_names) == ("Prices", ("ID", "Price"))


@pytest.fixture
def reviews():
    return Relation.from_columns(
        "Review",
        {"PID": [1, 2, 2, 3, 4, None], "RID": [1, 2, 3, 4, 5, 6], "Rating": [2, 4, 1, 3, 5, 2]},
        key=("RID",),
    )


@pytest.fixture
def products():
    return Relation.from_columns(
        "Product",
        {"PID": [1, 2, 3, 3, None], "Price": [999.0, 529.0, 549.0, 100.0, 5.0]},
        key=("PID", "Price"),
    )


#: left rows in order, each one's matches in right-row order; a null key
#: matches only a null key
JOINED = [(1, 1, 2, 999.0), (2, 2, 4, 529.0), (2, 3, 1, 529.0), (3, 4, 3, 549.0), (3, 4, 3, 100.0)]
JOINED_NULL_KEY = [(None, 6, 2, 5.0)]


@pytest.mark.parametrize(
    "how, expected",
    [("inner", JOINED + JOINED_NULL_KEY), ("left", JOINED + [(4, 5, 5, None)] + JOINED_NULL_KEY)],
)
def test_join_order_null_keys_and_padding(reviews, products, how, expected):
    joined = equi_join(reviews, products, on=[("PID", "PID")], how=how)
    assert joined.attribute_names == ("PID", "RID", "Rating", "Price")
    assert rows_of(joined) == expected


@pytest.mark.parametrize(
    "how, expected",
    [
        ("inner", [(2, 1.0, "x"), (4, 3.0, "y")]),
        ("left", [(2, 1.0, "x"), (3, 2.0, None), (4, 3.0, "y")]),
    ],
)
def test_join_keys_compare_with_python_equality(how, expected):
    left = Relation.from_columns("L", {"K": [2, 3, 4], "A": [1.0, 2.0, 3.0]}, key=("K",))
    right = Relation.from_columns("R", {"K": [2.0, 4.0, None], "B": ["x", "y", "z"]}, key=("B",))
    joined = equi_join(left, right, on=[("K", "K")], how=how)
    assert rows_of(joined) == expected


#: row 2, ("x", 2), has no match; the null "A" of row 5 matches the null one
TWO_KEY_JOINED = [(1, "x", 1, 20.0), (1, "x", 1, 30.0), (3, "y", 1, 40.0), (4, "y", 2, 10.0)]
TWO_KEY_NULL = [(5, None, 1, 50.0)]


@pytest.mark.parametrize(
    "how, expected",
    [
        ("inner", TWO_KEY_JOINED + TWO_KEY_NULL),
        ("left", TWO_KEY_JOINED[:2] + [(2, "x", 2, None)] + TWO_KEY_JOINED[2:] + TWO_KEY_NULL),
    ],
)
def test_join_on_two_attributes_matches_both(how, expected):
    left = Relation.from_columns(
        "L",
        {"ID": [1, 2, 3, 4, 5], "A": ["x", "x", "y", "y", None], "B": [1, 2, 1, 2, 1]},
        key=("ID",),
    )
    right = Relation.from_columns(
        "R",
        {"A": ["y", "x", "x", "y", None], "B": [2, 1, 1, 1, 1], "V": [10.0, 20.0, 30.0, 40.0, 50.0]},
        key=("V",),
    )
    joined = equi_join(left, right, on=[("A", "A"), ("B", "B")], how=how)
    assert joined.attribute_names == ("ID", "A", "B", "V")
    assert rows_of(joined) == expected


@pytest.mark.parametrize("how", ["inner", "left"])
def test_join_against_no_rows(reviews, products, how):
    """An inner join with an empty side is empty; a left join pads every left row."""
    nothing = select(products, col("Price") > 10_000)
    joined = equi_join(reviews, nothing, on=[("PID", "PID")], how=how)
    padded = [(*row, None) for row in rows_of(reviews)]
    assert rows_of(joined) == (padded if how == "left" else [])


def test_join_prefixes_colliding_right_attributes(reviews):
    other = Relation.from_columns("Other", {"PID": [1, 2], "Rating": [1.0, 2.0]}, key=("PID",))
    joined = equi_join(reviews, other, on=[("PID", "PID")], name="J")
    assert (joined.name, joined.attribute_names) == ("J", ("PID", "RID", "Rating", "Other_Rating"))
    assert set(joined.schema.key) == {"RID"}


@pytest.mark.parametrize(
    "how, expected",
    [("sum", [6.0, 4.0, 5.0, 0.0]), ("count", [2.0, 2.0, 1.0, 0.0]), ("avg", [3.0, 2.0, 5.0, 0.0])],
)
def test_group_by_first_occurrence_order_over_nulls(mixed, how, expected):
    grouped = group_by(mixed, ["Category"], {"Out": ("Rating", how)}, key=("Category",))
    # the null-rating eBook group is the empty aggregate, 0.0
    assert rows_of(grouped) == list(zip(["Laptop", "Camera", None, "eBook"], expected))


def test_group_by_multi_key_with_null_keys():
    columns = {
        "ID": [1, 2, 3, 4, 5, 6, 7],
        "A": ["x", "x", "y", None, None, "x", "y"],
        "B": [1, 1, 2, None, None, 2.0, 2],
        "V": [1.0, 3.0, None, 4.0, 6.0, 5.0, 7.0],
    }
    aggregations = {"N": ("V", "count"), "S": ("V", "sum"), "P": ("V", "avg")}
    grouped = group_by(Relation.from_columns("G", columns, key=("ID",)), ["A", "B"], aggregations)
    assert rows_of(grouped) == [
        ("x", 1, 2.0, 4.0, 2.0),
        ("y", 2, 1.0, 7.0, 7.0),
        (None, None, 2.0, 10.0, 5.0),
        ("x", 2, 1.0, 5.0, 5.0),
    ]


@pytest.mark.parametrize(
    "how, expected",
    [("avg", [3.0, None, None, 4.0]), ("sum", [6.0, None, None, 8.0]), ("count", [2.0, None, None, 2.0])],
)
def test_use_aggregation_is_none_without_a_non_null_match(how, expected):
    """Product 2 has only a null rating and product 3 no review at all."""
    database = Database(
        [
            Relation.from_columns("Product", {"PID": [1, 2, 3, 4]}, key=("PID",)),
            Relation.from_columns(
                "Review",
                {"RID": [1, 2, 3, 4, 5], "PID": [1, 1, 2, 4, 4], "Rating": [4, 2, None, 3, 5]},
                key=("RID",),
            ),
        ],
        foreign_keys=[ForeignKey("Review", ("PID",), "Product", ("PID",))],
    )
    use = UseSpec("Product", aggregated=[AggregatedAttribute("Out", "Review", "Rating", how)])
    assert rows_of(use.build(database)) == list(zip([1, 2, 3, 4], expected))


def test_dataset_aggregated_use_equals_a_group_by_of_the_reviews():
    """Per-product review averages agree with a group-by over Review."""
    dataset = make_amazon_syn(n_products=60, seed=3)
    view = dataset.default_use.build(dataset.database)
    for agg in dataset.default_use.aggregated:
        grouped = group_by(
            dataset.database[agg.relation],
            ["PID"],
            {"v": (agg.attribute, agg.how), "n": (agg.attribute, "count")},
        )
        by_pid = {row["PID"]: row["v"] if row["n"] else None for row in grouped.rows()}
        expected = [by_pid.get(pid) for pid in view.column_view("PID")]
        assert list(view.column_view(agg.name)) == expected, agg.name
        assert any(v is not None for v in expected)
