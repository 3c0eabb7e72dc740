"""Optimization substrate (paper §4.3): the 0/1 integer program of HypeR's
how-to queries, which a how-to solves in closed form
(:func:`repro.core.howto.solve_how_to`), and two solvers for it: a
branch-and-bound over scipy LP relaxations, kept for the benchmark's
``optim.solve_ms`` probe and as a test oracle, and an exhaustive enumerator,
the correctness oracle of the tests.
"""

from .model import Constraint, IntegerProgram, LinearExpression, Variable
from .solution import Solution, SolveStatus
from .solver import BranchAndBoundSolver, ExhaustiveSolver, solve_integer_program

__all__ = [
    "BranchAndBoundSolver",
    "Constraint",
    "ExhaustiveSolver",
    "IntegerProgram",
    "LinearExpression",
    "Solution",
    "SolveStatus",
    "Variable",
    "solve_integer_program",
]
