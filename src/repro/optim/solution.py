"""Solver results."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

__all__ = ["SolveStatus", "Solution"]


class SolveStatus(Enum):
    """Terminal state of a solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # a feasible incumbent was found but optimality is unproven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class Solution:
    """Result of solving an integer program."""

    status: SolveStatus
    objective: float = float("nan")
    assignment: Mapping[str, float] = field(default_factory=dict)
    n_nodes_explored: int = 0
    gap: float = 0.0

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def value(self, variable: str) -> float:
        return float(self.assignment[variable])
