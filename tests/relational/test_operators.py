"""Tests for relational algebra operators (select / project / join / group-by)."""

import pytest

from repro.exceptions import SchemaError
from repro.relational import Relation, col, equi_join, group_by, project, select


@pytest.fixture
def products():
    return Relation.from_columns(
        "Product",
        {
            "PID": [1, 2, 3],
            "Category": ["Laptop", "Laptop", "Camera"],
            "Price": [999.0, 529.0, 549.0],
        },
        key=("PID",),
        immutable=("Category",),
    )


@pytest.fixture
def reviews():
    return Relation.from_columns(
        "Review",
        {
            "PID": [1, 2, 2, 3, 4],
            "RID": [1, 2, 3, 4, 5],
            "Rating": [2, 4, 1, 3, 5],
        },
        key=("PID", "RID"),
    )


class TestSelectProject:
    def test_select(self, products):
        laptops = select(products, col("Category") == "Laptop")
        assert len(laptops) == 2

    def test_select_empty_result(self, products):
        assert len(select(products, col("Price") > 10_000)) == 0

    def test_project(self, products):
        projected = project(products, ["PID", "Price"], name="Prices")
        assert projected.name == "Prices"
        assert projected.attribute_names == ("PID", "Price")


class TestJoin:
    def test_inner_join_matches(self, products, reviews):
        joined = equi_join(products, reviews, on=[("PID", "PID")])
        assert len(joined) == 4  # review for PID=4 has no product
        assert "Rating" in joined.schema
        assert set(joined.schema.key) >= {"PID"}

    def test_left_join_pads_missing(self, reviews, products):
        joined = equi_join(reviews, products, on=[("PID", "PID")], how="left")
        assert len(joined) == 5
        unmatched = [row for row in joined.rows() if row["PID"] == 4][0]
        assert unmatched["Price"] is None

    def test_join_name_collision_prefixes(self, products):
        other = Relation.from_columns(
            "Other", {"PID": [1, 2], "Price": [1.0, 2.0]}, key=("PID",)
        )
        joined = equi_join(products, other, on=[("PID", "PID")])
        assert "Other_Price" in joined.schema

    def test_join_errors(self, products, reviews):
        with pytest.raises(SchemaError):
            equi_join(products, reviews, on=[])
        with pytest.raises(SchemaError):
            equi_join(products, reviews, on=[("Nope", "PID")])
        with pytest.raises(SchemaError):
            equi_join(products, reviews, on=[("PID", "Nope")])
        with pytest.raises(SchemaError):
            equi_join(products, reviews, on=[("PID", "PID")], how="outer")


class TestGroupBy:
    def test_group_by_with_aggregations(self, reviews):
        grouped = group_by(
            reviews,
            by=["PID"],
            aggregations={"AvgRating": ("Rating", "avg"), "NumReviews": ("Rating", "count")},
        )
        by_pid = {row["PID"]: row for row in grouped.rows()}
        assert by_pid[2]["AvgRating"] == pytest.approx(2.5)
        assert by_pid[2]["NumReviews"] == 2
        assert by_pid[1]["AvgRating"] == 2.0

    def test_group_by_sum(self, reviews):
        grouped = group_by(reviews, by=["PID"], aggregations={"Total": ("Rating", "sum")})
        totals = {row["PID"]: row["Total"] for row in grouped.rows()}
        assert totals[2] == 5.0

    def test_group_by_errors(self, reviews):
        with pytest.raises(SchemaError):
            group_by(reviews, by=["Nope"], aggregations={})
        with pytest.raises(SchemaError):
            group_by(reviews, by=["PID"], aggregations={"X": ("Nope", "avg")})
        with pytest.raises(SchemaError):
            group_by(reviews, by=["PID"], aggregations={"PID": ("Rating", "avg")})
        with pytest.raises(SchemaError):
            group_by(reviews, by=["PID"], aggregations={}, key=("RID",))
