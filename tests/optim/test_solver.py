"""Tests for the branch-and-bound and exhaustive IP solvers."""

import pytest

from repro.exceptions import ConvergenceError, OptimizationError
from repro.optim import (
    BranchAndBoundSolver,
    ExhaustiveSolver,
    IntegerProgram,
    SolveStatus,
    solve_integer_program,
)


def knapsack(values, weights, capacity) -> IntegerProgram:
    program = IntegerProgram("knapsack")
    for i in range(len(values)):
        program.add_binary(f"x{i}")
    program.add_constraint({f"x{i}": w for i, w in enumerate(weights)}, "<=", capacity)
    program.set_objective({f"x{i}": v for i, v in enumerate(values)}, maximize=True)
    return program


def selected(solution):
    """Names of the binary variables set to 1."""
    return [name for name, value in solution.assignment.items() if value > 0.5]


class TestBranchAndBound:
    def test_small_knapsack_optimum(self):
        program = knapsack([10, 13, 7, 8], [3, 4, 2, 3], capacity=7)
        solution = BranchAndBoundSolver().solve(program)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(23.0)

    def test_matches_exhaustive_on_random_instances(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for trial in range(5):
            n = 8
            values = rng.integers(1, 20, size=n).tolist()
            weights = rng.integers(1, 10, size=n).tolist()
            capacity = int(sum(weights) * 0.4)
            program = knapsack(values, weights, capacity)
            bnb = BranchAndBoundSolver().solve(program)
            exact = ExhaustiveSolver().solve(program)
            assert bnb.objective == pytest.approx(exact.objective), f"trial {trial}"

    def test_at_most_one_constraints(self):
        program = IntegerProgram()
        for name in ("a", "b", "c"):
            program.add_binary(name)
        program.add_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, "<=", 1.0)
        program.set_objective({"a": 1.0, "b": 5.0, "c": 3.0}, maximize=True)
        solution = BranchAndBoundSolver().solve(program)
        assert selected(solution) == ["b"]

    def test_minimisation(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_binary("b")
        program.add_constraint({"a": 1.0, "b": 1.0}, ">=", 1.0)
        program.set_objective({"a": 2.0, "b": 5.0}, maximize=False)
        solution = BranchAndBoundSolver().solve(program)
        assert solution.objective == pytest.approx(2.0)
        assert selected(solution) == ["a"]

    def test_infeasible_program(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_constraint({"a": 1.0}, ">=", 2.0)
        program.set_objective({"a": 1.0})
        solution = BranchAndBoundSolver().solve(program)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_empty_program(self):
        program = IntegerProgram()
        program.set_objective({})
        solution = BranchAndBoundSolver().solve(program)
        assert solution.status is SolveStatus.OPTIMAL

    def test_node_budget_exhausted(self):
        # A 12-item knapsack with correlated weights makes the relaxation fractional.
        program = knapsack(list(range(1, 13)), [2] * 12, capacity=11)
        with pytest.raises(ConvergenceError):
            BranchAndBoundSolver(max_nodes=0).solve(program)

    def test_objective_with_constant(self):
        from repro.optim import LinearExpression

        program = IntegerProgram()
        program.add_binary("a")
        program.set_objective(LinearExpression({"a": 2.0}, 10.0), maximize=True)
        solution = BranchAndBoundSolver().solve(program)
        assert solution.objective == pytest.approx(12.0)


class TestExhaustive:
    def test_respects_constraints(self):
        program = knapsack([5, 4], [1, 1], capacity=1)
        solution = ExhaustiveSolver().solve(program)
        assert solution.objective == 5.0
        assert solution.n_nodes_explored == 4

    def test_rejects_continuous_variables(self):
        program = IntegerProgram()
        program.add_variable("x", lower=0.0, upper=1.0, integer=False)
        program.set_objective({"x": 1.0})
        with pytest.raises(OptimizationError):
            ExhaustiveSolver().solve(program)

    def test_assignment_budget(self):
        program = knapsack([1] * 25, [1] * 25, capacity=25)
        with pytest.raises(OptimizationError):
            ExhaustiveSolver(max_assignments=100).solve(program)

    def test_infeasible(self):
        program = IntegerProgram()
        program.add_binary("a")
        program.add_constraint({"a": 1.0}, ">=", 2.0)
        program.set_objective({"a": 1.0})
        assert ExhaustiveSolver().solve(program).status is SolveStatus.INFEASIBLE


class TestFrontEnd:
    def test_solve_integer_program_dispatch(self):
        program = knapsack([3, 2], [1, 1], capacity=1)
        assert solve_integer_program(program, method="bnb").objective == 3.0
        assert solve_integer_program(program, method="exhaustive").objective == 3.0
        with pytest.raises(OptimizationError):
            solve_integer_program(program, method="simulated-annealing")
