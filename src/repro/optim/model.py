"""Linear (integer) program model objects.

The how-to engine (Section 4.3) casts the search over candidate updates as a
0/1 integer program: one indicator variable per candidate update value per
attribute, at-most-one constraints per attribute, extra linear constraints from
the ``Limit`` operator, and a linearised objective.  These classes give that IP
an explicit, solver-independent representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import OptimizationError

__all__ = ["Variable", "LinearExpression", "Constraint", "IntegerProgram"]


@dataclass(frozen=True)
class Variable:
    """A decision variable with bounds; ``integer=True`` restricts it to integers."""

    name: str
    lower: float = 0.0
    upper: float = 1.0
    integer: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise OptimizationError("variables need non-empty names")
        if self.lower > self.upper:
            raise OptimizationError(
                f"variable {self.name!r} has lower bound {self.lower} > upper bound {self.upper}"
            )


@dataclass
class LinearExpression:
    """A linear expression ``sum_i coeff_i * x_i + constant``."""

    coefficients: dict[str, float] = field(default_factory=dict)
    constant: float = 0.0

    @classmethod
    def from_terms(cls, terms: Mapping[str, float], constant: float = 0.0) -> "LinearExpression":
        return cls({k: float(v) for k, v in terms.items() if v != 0.0}, float(constant))

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        total = self.constant
        for variable, coefficient in self.coefficients.items():
            if variable not in assignment:
                raise OptimizationError(f"assignment is missing variable {variable!r}")
            total += coefficient * assignment[variable]
        return total

    def __add__(self, other: "LinearExpression") -> "LinearExpression":
        merged = dict(self.coefficients)
        for variable, coefficient in other.coefficients.items():
            merged[variable] = merged.get(variable, 0.0) + coefficient
        return LinearExpression(merged, self.constant + other.constant)

    def scaled(self, factor: float) -> "LinearExpression":
        return LinearExpression(
            {k: v * factor for k, v in self.coefficients.items()}, self.constant * factor
        )

    def variables(self) -> set[str]:
        return set(self.coefficients)


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expression <sense> rhs`` with sense in {<=, >=, ==}."""

    expression: LinearExpression
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise OptimizationError(f"unknown constraint sense {self.sense!r}")

    def satisfied_by(self, assignment: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        value = self.expression.evaluate(assignment)
        if self.sense == "<=":
            return value <= self.rhs + tolerance
        if self.sense == ">=":
            return value >= self.rhs - tolerance
        return abs(value - self.rhs) <= tolerance


class IntegerProgram:
    """A (mixed) integer linear program with a single linear objective."""

    def __init__(self, name: str = "howto-ip") -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.objective: LinearExpression = LinearExpression()
        self.maximize: bool = True

    # -- construction -----------------------------------------------------------

    def add_variable(
        self,
        name: str,
        *,
        lower: float = 0.0,
        upper: float = 1.0,
        integer: bool = True,
    ) -> Variable:
        if name in self._variables:
            raise OptimizationError(f"variable {name!r} already exists")
        variable = Variable(name, lower, upper, integer)
        self._variables[name] = variable
        return variable

    def add_binary(self, name: str) -> Variable:
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True)

    def add_constraint(
        self,
        expression: LinearExpression | Mapping[str, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        if not isinstance(expression, LinearExpression):
            expression = LinearExpression.from_terms(expression)
        unknown = expression.variables() - set(self._variables)
        if unknown:
            raise OptimizationError(f"constraint references unknown variables {sorted(unknown)}")
        constraint = Constraint(expression, sense, float(rhs), name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(
        self,
        expression: LinearExpression | Mapping[str, float],
        *,
        maximize: bool = True,
        constant: float = 0.0,
    ) -> None:
        if not isinstance(expression, LinearExpression):
            expression = LinearExpression.from_terms(expression, constant)
        unknown = expression.variables() - set(self._variables)
        if unknown:
            raise OptimizationError(f"objective references unknown variables {sorted(unknown)}")
        self.objective = expression
        self.maximize = maximize

    # -- introspection ------------------------------------------------------------

    @property
    def variables(self) -> dict[str, Variable]:
        return dict(self._variables)

    @property
    def variable_names(self) -> list[str]:
        return list(self._variables)

    @property
    def n_variables(self) -> int:
        return len(self._variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def is_feasible(self, assignment: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        for name, variable in self._variables.items():
            if name not in assignment:
                return False
            value = assignment[name]
            if value < variable.lower - tolerance or value > variable.upper + tolerance:
                return False
            if variable.integer and abs(value - round(value)) > tolerance:
                return False
        return all(c.satisfied_by(assignment, tolerance) for c in self.constraints)

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        return self.objective.evaluate(assignment)

    # -- matrix form (consumed by the LP relaxation) --------------------------------

    def matrix_form(self) -> dict:
        """Return numpy arrays in the form expected by ``scipy.optimize.linprog``."""
        order = self.variable_names
        index = {name: i for i, name in enumerate(order)}
        c = np.zeros(len(order))
        for variable, coefficient in self.objective.coefficients.items():
            c[index[variable]] = coefficient
        a_ub_rows, b_ub, a_eq_rows, b_eq = [], [], [], []
        for constraint in self.constraints:
            row = np.zeros(len(order))
            for variable, coefficient in constraint.expression.coefficients.items():
                row[index[variable]] = coefficient
            rhs = constraint.rhs - constraint.expression.constant
            if constraint.sense == "<=":
                a_ub_rows.append(row)
                b_ub.append(rhs)
            elif constraint.sense == ">=":
                a_ub_rows.append(-row)
                b_ub.append(-rhs)
            else:
                a_eq_rows.append(row)
                b_eq.append(rhs)
        bounds = [(self._variables[name].lower, self._variables[name].upper) for name in order]
        return {
            "order": order,
            "c": c,
            "A_ub": np.array(a_ub_rows) if a_ub_rows else None,
            "b_ub": np.array(b_ub) if b_ub else None,
            "A_eq": np.array(a_eq_rows) if a_eq_rows else None,
            "b_eq": np.array(b_eq) if b_eq else None,
            "bounds": bounds,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IntegerProgram({self.name!r}, {self.n_variables} vars, "
            f"{self.n_constraints} constraints, {'max' if self.maximize else 'min'})"
        )
