"""Tests for Pre/Post-aware expression trees."""

import pytest

from repro.exceptions import ExpressionError
from repro.relational import (
    Arithmetic,
    BooleanExpr,
    Comparison,
    Const,
    EvaluationContext,
    InSet,
    Not,
    Temporal,
    col,
    lit,
    post,
    pre,
)


@pytest.fixture
def context():
    return EvaluationContext(
        pre_row={"Price": 100.0, "Brand": "Asus", "Rating": 3.0},
        post_row={"Price": 110.0, "Brand": "Asus", "Rating": 3.5},
    )


class TestAttributeReferences:
    def test_pre_and_post_values(self, context):
        assert pre("Price").evaluate(context) == 100.0
        assert post("Price").evaluate(context) == 110.0

    def test_default_reads_pre(self, context):
        assert col("Price").evaluate(context) == 100.0

    def test_default_temporal_override(self):
        context = EvaluationContext(
            {"X": 1}, {"X": 2}, default_temporal=Temporal.POST
        )
        assert col("X").evaluate(context) == 2

    def test_post_falls_back_to_pre_without_post_row(self):
        context = EvaluationContext({"X": 7})
        assert post("X").evaluate(context) == 7

    def test_missing_attribute_raises(self, context):
        with pytest.raises(ExpressionError, match="not available"):
            pre("Missing").evaluate(context)

    def test_empty_name_raises(self):
        with pytest.raises(ExpressionError):
            col("")


class TestComparisonsAndArithmetic:
    def test_operator_sugar_builds_trees(self, context):
        expr = (pre("Price") * 1.1) > 105
        assert isinstance(expr, Comparison)
        assert expr.evaluate(context) is True

    def test_all_comparison_operators(self, context):
        assert (pre("Price") == 100).evaluate(context)
        assert (pre("Price") != 99).evaluate(context)
        assert (pre("Price") < 101).evaluate(context)
        assert (pre("Price") <= 100).evaluate(context)
        assert (post("Price") > 100).evaluate(context)
        assert (post("Price") >= 110).evaluate(context)

    def test_arithmetic_operators(self, context):
        assert Arithmetic(pre("Price"), "+", lit(1)).evaluate(context) == 101.0
        assert (pre("Price") - 10).evaluate(context) == 90.0
        assert (pre("Price") / 2).evaluate(context) == 50.0
        assert (2 * pre("Price")).evaluate(context) == 200.0

    def test_comparison_with_none_is_false(self):
        context = EvaluationContext({"X": None})
        assert (col("X") > 3).evaluate(context) is False

    def test_type_error_wrapped(self, context):
        with pytest.raises(ExpressionError):
            (pre("Brand") + 1).evaluate(context)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison(lit(1), "~", lit(2))
        with pytest.raises(ExpressionError):
            Arithmetic(lit(1), "%", lit(2))


class TestBooleanLogic:
    def test_and_or_not(self, context):
        expr = (pre("Brand") == "Asus") & (post("Rating") > 3.2)
        assert expr.evaluate(context) is True
        expr_or = (pre("Brand") == "HP") | (pre("Price") == 100)
        assert expr_or.evaluate(context) is True
        assert Not(expr_or).evaluate(context) is False
        assert (~(pre("Brand") == "Asus")).evaluate(context) is False

    def test_in_set(self, context):
        assert pre("Brand").isin(["Asus", "HP"]).evaluate(context)
        assert not InSet(pre("Brand"), ["HP"]).evaluate(context)

    def test_empty_boolean_raises(self):
        with pytest.raises(ExpressionError):
            BooleanExpr("and", [])
        with pytest.raises(ExpressionError):
            BooleanExpr("xor", [lit(True)])


class TestIntrospection:
    def test_referenced_attributes(self):
        expr = (pre("A") > 1) & (post("B") == 2) & (col("C") != 3)
        refs = expr.referenced_attributes()
        assert ("A", Temporal.PRE) in refs
        assert ("B", Temporal.POST) in refs
        assert ("C", Temporal.DEFAULT) in refs
        assert expr.attribute_names() == {"A", "B", "C"}

    def test_uses_post(self):
        assert (post("X") > 1).uses_post()
        assert not (pre("X") > 1).uses_post()
        assert not Const(True).uses_post()

    def test_const_has_no_references(self):
        assert lit(5).referenced_attributes() == set()
