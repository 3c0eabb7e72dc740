"""Tests for the integer-program model objects."""

import pytest

from repro.exceptions import OptimizationError
from repro.optim import IntegerProgram, LinearExpression, Variable


class TestLinearExpression:
    def test_evaluate(self):
        expr = LinearExpression.from_terms({"x": 2.0, "y": -1.0}, constant=3.0)
        assert expr.evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(3.0)

    def test_missing_variable_raises(self):
        expr = LinearExpression.from_terms({"x": 1.0})
        with pytest.raises(OptimizationError):
            expr.evaluate({})

    def test_add_term_merges_and_drops_zero(self):
        expr = LinearExpression.from_terms({"x": 1.0, "y": 0.0})
        assert "y" not in expr.coefficients
        merged = expr + LinearExpression.from_terms({"x": 2.0})
        assert merged.coefficients == {"x": 3.0}

    def test_addition_and_scaling(self):
        a = LinearExpression.from_terms({"x": 1.0}, 1.0)
        b = LinearExpression.from_terms({"x": 2.0, "y": 1.0}, 2.0)
        combined = a + b
        assert combined.coefficients == {"x": 3.0, "y": 1.0}
        assert combined.constant == 3.0
        scaled = combined.scaled(2.0)
        assert scaled.coefficients["x"] == 6.0


class TestIntegerProgram:
    def test_build_and_introspect(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_binary("b")
        program.add_constraint({"a": 1.0, "b": 1.0}, "<=", 1.0)
        program.set_objective({"a": 2.0, "b": 3.0}, maximize=True)
        assert program.n_variables == 2
        assert program.n_constraints == 1
        assert program.objective_value({"a": 1.0, "b": 0.0}) == 2.0

    def test_duplicate_variable_rejected(self):
        program = IntegerProgram()
        program.add_binary("a")
        with pytest.raises(OptimizationError):
            program.add_binary("a")

    def test_invalid_bounds_and_sense(self):
        with pytest.raises(OptimizationError):
            Variable("x", lower=2.0, upper=1.0)
        program = IntegerProgram()
        program.add_binary("a")
        with pytest.raises(OptimizationError):
            program.add_constraint({"a": 1.0}, "<", 1.0)

    def test_unknown_variable_in_constraint_or_objective(self):
        program = IntegerProgram()
        program.add_binary("a")
        with pytest.raises(OptimizationError):
            program.add_constraint({"zzz": 1.0}, "<=", 1.0)
        with pytest.raises(OptimizationError):
            program.set_objective({"zzz": 1.0})

    def test_feasibility_check(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_binary("b")
        program.add_constraint({"a": 1.0, "b": 1.0}, "<=", 1.0)
        assert program.is_feasible({"a": 1.0, "b": 0.0})
        assert not program.is_feasible({"a": 1.0, "b": 1.0})
        assert not program.is_feasible({"a": 0.5, "b": 0.0})  # fractional
        assert not program.is_feasible({"a": 2.0, "b": 0.0})  # out of bounds
        assert not program.is_feasible({"a": 1.0})  # missing variable

    def test_matrix_form(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_binary("b")
        program.add_constraint({"a": 1.0, "b": 1.0}, "<=", 1.0)
        program.add_constraint({"a": 1.0}, ">=", 0.5)
        program.add_constraint({"b": 1.0}, "==", 0.0)
        program.set_objective({"a": 1.0, "b": 2.0})
        matrices = program.matrix_form()
        assert matrices["A_ub"].shape == (2, 2)  # <= and flipped >=
        assert matrices["A_eq"].shape == (1, 2)
        assert matrices["bounds"] == [(0.0, 1.0), (0.0, 1.0)]

    def test_equality_constraint_satisfaction(self):
        program = IntegerProgram()
        program.add_binary("a")
        constraint = program.add_constraint({"a": 1.0}, "==", 1.0)
        assert constraint.satisfied_by({"a": 1.0})
        assert not constraint.satisfied_by({"a": 0.0})
