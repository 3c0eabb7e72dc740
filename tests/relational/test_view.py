"""Tests for the Use operator (relevant view construction)."""

import pytest

from repro.exceptions import QuerySemanticsError
from repro.relational import AggregatedAttribute, UseSpec


class TestUseSpec:
    def test_view_has_one_row_per_base_tuple(self, figure1_database, figure4_use):
        view = figure4_use.build(figure1_database)
        assert len(view) == len(figure1_database["Product"])
        assert view.name == "RelevantView"

    def test_aggregated_ratings_match_example5(self, figure1_database, figure4_use):
        """Example 5: product p2 has ratings 4 and 2... actually 4 and 1 -> 2.5."""
        view = figure4_use.build(figure1_database)
        by_pid = {row["PID"]: row for row in view.rows()}
        assert by_pid[2]["Rtng"] == pytest.approx((4 + 1) / 2)
        assert by_pid[3]["Rtng"] == pytest.approx((3 + 5) / 2)
        assert by_pid[1]["Rtng"] == pytest.approx(2.0)

    def test_product_without_reviews_gets_none(self, figure1_database, figure4_use):
        view = figure4_use.build(figure1_database)
        by_pid = {row["PID"]: row for row in view.rows()}
        assert by_pid[5]["Rtng"] is None
        assert by_pid[5]["Senti"] is None

    def test_key_always_included(self, figure1_database):
        use = UseSpec(base_relation="Product", attributes=["Price"])
        view = use.build(figure1_database)
        assert "PID" in view.schema

    def test_attribute_names_listing(self, figure1_database, figure4_use):
        names = figure4_use.view_attribute_names(figure1_database)
        assert names[:4] == ["PID", "Category", "Price", "Brand"]
        assert "Senti" in names and "Rtng" in names

    def test_unknown_base_attribute_raises(self, figure1_database):
        use = UseSpec(base_relation="Product", attributes=["Nope"])
        with pytest.raises(QuerySemanticsError):
            use.build(figure1_database)

    def test_unknown_aggregated_attribute_raises(self, figure1_database):
        use = UseSpec(
            base_relation="Product",
            aggregated=[AggregatedAttribute("X", "Review", "Nope", "avg")],
        )
        with pytest.raises(QuerySemanticsError):
            use.build(figure1_database)

    def test_missing_join_path_raises(self, figure1_database):
        use = UseSpec(
            base_relation="Review",
            aggregated=[AggregatedAttribute("Q", "Product", "Quality", "avg")],
            joins={},
        )
        # Review -> Product is linked by a foreign key, so this works; but an
        # unlinked relation must fail.
        view = use.build(figure1_database)
        assert "Q" in view.schema

    def test_explicit_join_condition(self, figure1_database):
        use = UseSpec(
            base_relation="Product",
            aggregated=[AggregatedAttribute("NumReviews", "Review", "Rating", "count")],
            joins={"Review": [("PID", "PID")]},
        )
        view = use.build(figure1_database)
        by_pid = {row["PID"]: row["NumReviews"] for row in view.rows()}
        assert by_pid[2] == 2 and by_pid[3] == 2 and by_pid[1] == 1

    def test_aggregating_base_relation_attribute_is_identity(self, figure1_database):
        use = UseSpec(
            base_relation="Product",
            attributes=["PID", "Price"],
            aggregated=[AggregatedAttribute("P2", "Product", "Price", "avg")],
        )
        view = use.build(figure1_database)
        for row in view.rows():
            assert row["P2"] == row["Price"]

    def test_invalid_aggregate_name_rejected_eagerly(self):
        with pytest.raises(Exception):
            AggregatedAttribute("X", "Review", "Rating", "median")

    def test_build_shares_the_base_relations_columns(self, figure1_database, figure4_use):
        base = figure1_database[figure4_use.base_relation]
        view = figure4_use.build(figure1_database)
        for name in figure4_use.attributes:
            assert view.column_view(name) is base.column_view(name)
            assert view.columnar_store()[name] is base.columnar_store()[name]

    def test_view_rebuilds_on_modified_database(self, figure1_database, figure4_use):
        """The same spec must work on a possible world (modified instance)."""
        product = figure1_database["Product"]
        doubled = product.with_column(
            "Price", [v * 2 for v in product.column_view("Price")]
        )
        world = figure1_database.with_relation(doubled)
        view = figure4_use.build(world)
        by_pid = {row["PID"]: row for row in view.rows()}
        assert by_pid[2]["Price"] == pytest.approx(529.0 * 2)
