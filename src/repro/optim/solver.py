"""Integer-program solvers: branch-and-bound over LP relaxations, plus exhaustive.

The paper hands its how-to IP to "existing IP solvers"; here a how-to solves
it in closed form, by greedy (:func:`repro.core.howto.solve_how_to`).
:class:`BranchAndBoundSolver` (the LP relaxation by scipy's HiGHS backend,
branching on fractional integer variables) is kept for the benchmark's
``optim.solve_ms`` probe and as a test oracle; scipy, which the package does
not depend on, is imported only when it solves.
:class:`ExhaustiveSolver` enumerates every 0/1 assignment and is the
correctness oracle for both the branch-and-bound and the greedy in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError, OptimizationError
from .model import IntegerProgram
from .solution import Solution, SolveStatus

__all__ = ["BranchAndBoundSolver", "ExhaustiveSolver", "solve_integer_program"]


@dataclass
class _LPResult:
    feasible: bool
    objective: float = float("inf")
    values: np.ndarray | None = None


@dataclass
class BranchAndBoundSolver:
    """Best-first branch-and-bound for (mixed) 0/1 integer programs.

    ``max_nodes`` bounds the search; exceeding it raises
    :class:`ConvergenceError` unless an incumbent exists, in which case the
    incumbent is returned with status ``FEASIBLE``.
    """

    max_nodes: int = 10_000
    tolerance: float = 1e-6

    def solve(self, program: IntegerProgram) -> Solution:
        from scipy.optimize import linprog

        matrices = program.matrix_form()
        order = matrices["order"]
        if not order:
            return Solution(status=SolveStatus.OPTIMAL, objective=program.objective.constant, assignment={})
        sign = -1.0 if program.maximize else 1.0
        c = sign * matrices["c"]
        integer_mask = np.array([program.variables[name].integer for name in order])

        incumbent_value = math.inf
        incumbent_values: np.ndarray | None = None
        nodes_explored = 0

        def lp_relaxation(bounds: list[tuple[float, float]]) -> _LPResult:
            result = linprog(
                c,
                A_ub=matrices["A_ub"],
                b_ub=matrices["b_ub"],
                A_eq=matrices["A_eq"],
                b_eq=matrices["b_eq"],
                bounds=bounds,
                method="highs",
            )
            if not result.success:
                return _LPResult(feasible=False)
            return _LPResult(feasible=True, objective=float(result.fun), values=result.x)

        # Best-first search keyed by the LP bound.
        root_bounds = list(matrices["bounds"])
        root = lp_relaxation(root_bounds)
        if not root.feasible:
            return Solution(status=SolveStatus.INFEASIBLE)
        frontier: list[tuple[float, int, list[tuple[float, float]], _LPResult]] = [
            (root.objective, 0, root_bounds, root)
        ]
        counter = itertools.count(1)

        while frontier:
            frontier.sort(key=lambda item: item[0])
            bound, _, bounds, relaxed = frontier.pop(0)
            nodes_explored += 1
            if nodes_explored > self.max_nodes:
                if incumbent_values is not None:
                    break
                raise ConvergenceError(
                    f"branch-and-bound exceeded max_nodes={self.max_nodes} with no incumbent"
                )
            if bound >= incumbent_value - self.tolerance:
                continue  # cannot improve on the incumbent
            assert relaxed.values is not None
            fractional = self._most_fractional(relaxed.values, integer_mask)
            if fractional is None:
                # Integral solution: candidate incumbent.
                if relaxed.objective < incumbent_value - self.tolerance:
                    incumbent_value = relaxed.objective
                    incumbent_values = relaxed.values.copy()
                continue
            index, value = fractional
            for low, high in (
                (bounds[index][0], math.floor(value)),
                (math.ceil(value), bounds[index][1]),
            ):
                if low > high:
                    continue
                child_bounds = list(bounds)
                child_bounds[index] = (low, high)
                child = lp_relaxation(child_bounds)
                if child.feasible and child.objective < incumbent_value - self.tolerance:
                    frontier.append((child.objective, next(counter), child_bounds, child))

        if incumbent_values is None:
            return Solution(status=SolveStatus.INFEASIBLE, n_nodes_explored=nodes_explored)
        assignment = {
            name: (round(v) if integer_mask[i] else float(v))
            for i, (name, v) in enumerate(zip(order, incumbent_values))
        }
        objective = program.objective_value(assignment)
        status = (
            SolveStatus.OPTIMAL if nodes_explored <= self.max_nodes else SolveStatus.FEASIBLE
        )
        return Solution(
            status=status,
            objective=objective,
            assignment=assignment,
            n_nodes_explored=nodes_explored,
        )

    def _most_fractional(
        self, values: np.ndarray, integer_mask: np.ndarray
    ) -> tuple[int, float] | None:
        best_index = None
        best_distance = self.tolerance
        for i, value in enumerate(values):
            if not integer_mask[i]:
                continue
            distance = abs(value - round(value))
            if distance > best_distance:
                best_distance = distance
                best_index = i
        if best_index is None:
            return None
        return best_index, float(values[best_index])


@dataclass
class ExhaustiveSolver:
    """Brute-force enumeration of all integral assignments (small programs only)."""

    max_assignments: int = 2_000_000

    def solve(self, program: IntegerProgram) -> Solution:
        order = program.variable_names
        value_ranges: list[list[float]] = []
        total = 1
        for name in order:
            variable = program.variables[name]
            if not variable.integer:
                raise OptimizationError(
                    "ExhaustiveSolver only handles pure integer programs"
                )
            values = [float(v) for v in range(int(variable.lower), int(variable.upper) + 1)]
            value_ranges.append(values)
            total *= len(values)
            if total > self.max_assignments:
                raise OptimizationError(
                    f"exhaustive enumeration would visit {total}+ assignments "
                    f"(> {self.max_assignments})"
                )
        best_value = -math.inf if program.maximize else math.inf
        best_assignment: dict[str, float] | None = None
        explored = 0
        for combo in itertools.product(*value_ranges) if order else [()]:
            explored += 1
            assignment = dict(zip(order, combo))
            if not program.is_feasible(assignment):
                continue
            value = program.objective_value(assignment)
            better = value > best_value if program.maximize else value < best_value
            if better:
                best_value = value
                best_assignment = assignment
        if best_assignment is None:
            return Solution(status=SolveStatus.INFEASIBLE, n_nodes_explored=explored)
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=best_value,
            assignment=best_assignment,
            n_nodes_explored=explored,
        )


def solve_integer_program(
    program: IntegerProgram, *, method: str = "branch-and-bound", **kwargs
) -> Solution:
    """Convenience front-end choosing a solver by name."""
    if method in ("branch-and-bound", "bnb"):
        return BranchAndBoundSolver(**kwargs).solve(program)
    if method in ("exhaustive", "enumerate"):
        return ExhaustiveSolver(**kwargs).solve(program)
    raise OptimizationError(f"unknown solve method {method!r}")
