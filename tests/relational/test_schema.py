"""Tests for relation and database schemas."""

import pytest

from repro.exceptions import SchemaError
from repro.relational import (
    AttributeSpec,
    CategoricalDomain,
    DatabaseSchema,
    ForeignKey,
    IntegerDomain,
    NumericDomain,
    RelationSchema,
)


def make_schema():
    return RelationSchema(
        "Product",
        [
            AttributeSpec("PID", IntegerDomain(1, 100), mutable=False),
            AttributeSpec("Price", NumericDomain(0, 1000)),
            AttributeSpec("Brand", CategoricalDomain(["a", "b"]), mutable=False),
        ],
        key=("PID",),
    )


class TestRelationSchema:
    def test_attribute_lookup(self):
        schema = make_schema()
        assert "Price" in schema
        assert schema["Price"].mutable
        assert schema.attribute_names == ("PID", "Price", "Brand")

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError, match="no attribute"):
            make_schema()["Missing"]

    def test_keys_are_forced_immutable(self):
        schema = RelationSchema(
            "R",
            [AttributeSpec("K", IntegerDomain(0, 10), mutable=True),
             AttributeSpec("V", IntegerDomain(0, 10))],
            key=("K",),
        )
        assert not schema.is_mutable("K")
        assert schema.key == ("K",)

    def test_mutable_and_immutable_partitions(self):
        schema = make_schema()
        assert schema.mutable_attributes == ("Price",)
        assert {a for a in schema.attribute_names if not schema.is_mutable(a)} == {"PID", "Brand"}

    def test_duplicate_attribute_names_raise(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RelationSchema(
                "R",
                [AttributeSpec("A", IntegerDomain(0, 1)), AttributeSpec("A", IntegerDomain(0, 1))],
                key=("A",),
            )

    def test_missing_key_raises(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [AttributeSpec("A", IntegerDomain(0, 1))], key=("B",))

    def test_empty_key_raises(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [AttributeSpec("A", IntegerDomain(0, 1))], key=())

    def test_project_keeps_key(self):
        schema = make_schema()
        projected = schema.project(["PID", "Price"])
        assert projected.attribute_names == ("PID", "Price")
        with pytest.raises(SchemaError, match="key"):
            schema.project(["Price"])

    def test_project_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            make_schema().project(["PID", "Nope"])

    def test_with_attribute_appends_or_replaces(self):
        schema = make_schema()
        extended = schema.with_attribute(AttributeSpec("New", NumericDomain(0, 1)))
        assert "New" in extended
        replaced = schema.with_attribute(AttributeSpec("Price", NumericDomain(0, 5)))
        assert replaced["Price"].domain.high == 5

    def test_with_attribute_replaces_in_position(self):
        schema = make_schema()
        replaced = schema.with_attribute(AttributeSpec("Price", NumericDomain(0, 5)))
        assert replaced.attribute_names == ("PID", "Price", "Brand")  # not moved to the end
        assert replaced != schema  # the domain did change
        # an unchanged spec gives back an equal schema, wherever the attribute sits
        for name in schema.attribute_names:
            assert schema.with_attribute(schema[name]) == schema
        extended = schema.with_attribute(AttributeSpec("New", NumericDomain(0, 1)))
        assert extended.attribute_names == ("PID", "Price", "Brand", "New")

    def test_from_columns_infers_domains(self):
        schema = RelationSchema.from_columns(
            "R", {"K": [1, 2], "V": ["x", "y"]}, key=("K",), immutable=("V",)
        )
        assert not schema.is_mutable("V")
        assert schema.key == ("K",)

    def test_equality(self):
        assert make_schema() == make_schema()
        assert make_schema() != make_schema().with_attribute(
            AttributeSpec("Extra", NumericDomain(0, 1))
        )


class TestDatabaseSchema:
    def test_resolution_and_foreign_keys(self):
        product = make_schema()
        review = RelationSchema(
            "Review",
            [
                AttributeSpec("PID", IntegerDomain(1, 100), mutable=False),
                AttributeSpec("RID", IntegerDomain(1, 100), mutable=False),
                AttributeSpec("Rating", IntegerDomain(1, 5)),
            ],
            key=("PID", "RID"),
        )
        fk = ForeignKey("Review", ("PID",), "Product", ("PID",))
        db_schema = DatabaseSchema([product, review], [fk])
        assert db_schema.resolve_attribute("Rating") == ("Review", "Rating")
        assert db_schema.resolve_attribute("Product.Price") == ("Product", "Price")
        assert db_schema.links_between("Product", "Review") == [fk]
        assert db_schema.links_between("Review", "Product") == [fk]

    def test_ambiguous_attribute_raises(self):
        product = make_schema()
        review = RelationSchema(
            "Review",
            [
                AttributeSpec("PID", IntegerDomain(1, 100), mutable=False),
                AttributeSpec("Price", NumericDomain(0, 10)),
            ],
            key=("PID",),
        )
        db_schema = DatabaseSchema([product, review])
        with pytest.raises(SchemaError, match="ambiguous"):
            db_schema.resolve_attribute("Price")

    def test_unknown_relation_and_attribute(self):
        db_schema = DatabaseSchema([make_schema()])
        with pytest.raises(SchemaError):
            db_schema["Nope"]
        with pytest.raises(SchemaError):
            db_schema.resolve_attribute("Nope.X")
        with pytest.raises(SchemaError):
            db_schema.resolve_attribute("DoesNotExist")

    def test_invalid_foreign_key(self):
        with pytest.raises(SchemaError):
            DatabaseSchema(
                [make_schema()],
                [ForeignKey("Product", ("PID",), "Missing", ("PID",))],
            )
        with pytest.raises(SchemaError):
            ForeignKey("A", ("x", "y"), "B", ("z",))
        with pytest.raises(SchemaError):
            ForeignKey("A", (), "B", ())

    def test_duplicate_relation_names(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([make_schema(), make_schema()])
