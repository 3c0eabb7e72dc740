"""Tests for hypothetical updates and update functions."""

import pytest

from repro.core.updates import (
    AddConstant,
    AttributeUpdate,
    HypotheticalUpdate,
    MultiplyBy,
    SetTo,
    apply_update_column,
)
from repro.exceptions import QuerySemanticsError
from repro.relational import post, pre


class TestUpdateFunctions:
    def test_set_to(self):
        assert SetTo(5).apply(3) == 5
        assert SetTo("Red").apply("Blue") == "Red"
        assert "= 5" in SetTo(5).describe()
        assert SetTo(1.25).describe() == "= 1.25"

    def test_add_constant(self):
        assert AddConstant(10).apply(5) == 15
        assert "+= 10" in AddConstant(10).describe()

    def test_multiply_by(self):
        assert MultiplyBy(1.1).apply(100) == pytest.approx(110)
        assert "*= 1.1" in MultiplyBy(1.1).describe()

    def test_apply_column_skips_none(self):
        assert apply_update_column(MultiplyBy(2.0), [1.0, None, 3.0]) == [2.0, None, 6.0]
        scoped = apply_update_column(MultiplyBy(2.0), [1.0, None, 3.0], [True, True, False])
        assert scoped == [2.0, None, 3.0]


class TestHypotheticalUpdate:
    def test_requires_updates(self):
        with pytest.raises(QuerySemanticsError):
            HypotheticalUpdate(updates=[])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(QuerySemanticsError):
            HypotheticalUpdate(
                updates=[
                    AttributeUpdate("Price", SetTo(1)),
                    AttributeUpdate("Price", SetTo(2)),
                ]
            )

    def test_when_cannot_use_post(self):
        with pytest.raises(QuerySemanticsError):
            HypotheticalUpdate(
                updates=[AttributeUpdate("Price", SetTo(1))], when=post("Rating") > 3
            )

    def test_updated_values_respect_scope(self):
        update = HypotheticalUpdate(
            updates=[AttributeUpdate("Price", MultiplyBy(2.0))], when=pre("Brand") == "Asus"
        )
        values = update.updated_values("Price", [100.0, 200.0, None], [True, False, True])
        assert values == [200.0, 200.0, None]

    def test_function_lookup(self):
        update = HypotheticalUpdate(updates=[AttributeUpdate("Price", SetTo(1))])
        assert isinstance(update.function_for("Price"), SetTo)
        with pytest.raises(QuerySemanticsError):
            update.function_for("Color")

    def test_describe(self):
        update = HypotheticalUpdate(
            updates=[
                AttributeUpdate("Price", MultiplyBy(1.1)),
                AttributeUpdate("Color", SetTo("Red")),
            ]
        )
        text = update.describe()
        assert "Price" in text and "Color" in text
