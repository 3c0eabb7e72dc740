"""Tests for CSV import/export."""

import pytest

from repro.exceptions import SchemaError
from repro.relational import read_csv, read_database, write_csv, write_database

from .oracles import check_referential_integrity


class TestCsvRoundTrip:
    def test_relation_round_trip(self, tmp_path, figure1_product):
        path = write_csv(figure1_product, tmp_path / "product.csv")
        loaded = read_csv(path, "Product", key=("PID",), immutable=("Category", "Brand"))
        assert len(loaded) == len(figure1_product)
        assert list(loaded.column_view("Brand")) == list(figure1_product.column_view("Brand"))
        assert loaded.column_view("Price")[0] == pytest.approx(999.0)

    def test_round_trip_preserves_schema_when_given(self, tmp_path, figure1_product):
        path = write_csv(figure1_product, tmp_path / "product.csv")
        loaded = read_csv(path, "Product", key=("PID",), schema=figure1_product.schema)
        assert loaded.schema == figure1_product.schema

    def test_none_values_round_trip(self, tmp_path, figure1_product):
        with_none = figure1_product.with_column("Quality", [0.5, None, 0.5, 0.5, 0.5])
        path = write_csv(with_none, tmp_path / "p.csv")
        loaded = read_csv(path, "Product", key=("PID",))
        assert loaded.column_view("Quality")[1] is None

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            read_csv(empty, "R", key=("K",))

    def test_boolean_and_integer_coercion(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("K,Flag,Count\n1,true,3\n2,false,4\n")
        loaded = read_csv(path, "R", key=("K",))
        assert loaded.column_view("Flag")[0] is True
        assert loaded.column_view("Count")[1] == 4

    def test_database_round_trip(self, tmp_path, figure1_database):
        paths = write_database(figure1_database, tmp_path / "db")
        assert set(paths) == {"Product", "Review"}
        loaded = read_database(
            tmp_path / "db",
            specs={
                "Product": {"key": ("PID",), "immutable": ("Category", "Brand")},
                "Review": {"key": ("PID", "ReviewID")},
            },
            foreign_keys=figure1_database.foreign_keys,
        )
        assert loaded.total_rows == figure1_database.total_rows
        check_referential_integrity(loaded)
