"""Tests for the multi-relation Database container."""

import pytest

from repro.exceptions import SchemaError
from repro.relational import Database, ForeignKey, Relation

from .oracles import check_referential_integrity


class TestDatabase:
    def test_access_and_iteration(self, figure1_database):
        assert set(figure1_database.relation_names) == {"Product", "Review"}
        assert "Product" in figure1_database
        assert len(figure1_database) == 2
        assert figure1_database.total_rows == 11
        with pytest.raises(SchemaError):
            figure1_database["Missing"]

    def test_resolve_attribute(self, figure1_database):
        assert figure1_database.resolve_attribute("Price") == ("Product", "Price")
        assert figure1_database.resolve_attribute("Review.Rating") == ("Review", "Rating")
        # PID exists in both relations -> ambiguous unless qualified
        with pytest.raises(SchemaError):
            figure1_database.resolve_attribute("PID")

    def test_referential_integrity_ok(self, figure1_database):
        check_referential_integrity(figure1_database)

    def test_referential_integrity_violation(self, figure1_product, figure1_review):
        pids = list(figure1_review.column_view("PID"))
        bad_review = figure1_review.with_column("PID", [999] + pids[1:])
        database = Database(
            [figure1_product, bad_review],
            foreign_keys=[ForeignKey("Review", ("PID",), "Product", ("PID",))],
        )
        with pytest.raises(SchemaError, match="referential integrity"):
            check_referential_integrity(database)

    def test_with_relation_replaces(self, figure1_database):
        product = figure1_database["Product"]
        cheaper = product.with_column("Price", [1.0] * len(product))
        replaced = figure1_database.with_relation(cheaper)
        assert list(replaced["Product"].column_view("Price")) == [1.0] * 5
        # original untouched
        assert figure1_database["Product"].column_view("Price")[0] == 999.0

    def test_with_relation_unknown_name(self, figure1_database):
        rogue = Relation.from_columns("Rogue", {"K": [1]}, key=("K",))
        with pytest.raises(SchemaError):
            figure1_database.with_relation(rogue)

    def test_duplicate_relation_names_rejected(self, figure1_product):
        with pytest.raises(SchemaError):
            Database([figure1_product, figure1_product])

    def test_describe_mentions_relations_and_fks(self, figure1_database):
        text = figure1_database.describe()
        assert "Product" in text and "Review" in text and "FK" in text
