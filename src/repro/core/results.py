"""Result objects returned by the what-if and how-to engines."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .updates import AttributeUpdate

__all__ = [
    "BlockContribution",
    "LazyBlockContributions",
    "WhatIfResult",
    "HowToResult",
]


@dataclass(frozen=True)
class BlockContribution:
    """Per-block partial answer (the ``f'`` value of Proposition 1)."""

    block_index: int
    partial_value: float
    n_tuples: int
    n_scope_tuples: int


class LazyBlockContributions(Sequence):
    """Sequence of :class:`BlockContribution` computed on first access.

    Proposition 1's per-block partials justify the answer; few callers read
    them.  ``build`` is a closure over the one side of the contributions the
    aggregate reads — the plan's read-only base, the term rows and the
    contributions there — and the plan's shared block / scope arrays.  The
    first time the sequence is measured, indexed, iterated or compared it
    rebuilds the per-row array and runs the ``np.bincount`` summary, and
    objects are constructed per access — with thousands of singleton blocks,
    building either eagerly dominated the per-query runtime.  Until then an
    answer holds one array over its term rows, not one over the view.
    In-process only: answers that cross a process or network boundary carry
    an empty list.
    """

    __slots__ = ("_build", "_arrays")

    def __init__(self, build: Callable[[], tuple]) -> None:
        self._build: Callable[[], tuple] | None = build
        self._arrays: tuple | None = None

    def _summary(self) -> tuple:
        """``(indices, totals, sizes, scope_sizes)``, built once."""
        if self._arrays is None:
            build = self._build  # a concurrent first access builds twice, benignly
            if build is not None:
                self._arrays = build()
                self._build = None  # release the contributions
        return self._arrays

    def __len__(self) -> int:
        return len(self._summary()[0])

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        indices, totals, sizes, scope_sizes = self._summary()
        block = int(indices[position])
        return BlockContribution(
            block_index=block,
            partial_value=float(totals[block]),
            n_tuples=int(sizes[block]),
            n_scope_tuples=int(scope_sizes[block]),
        )

    def __eq__(self, other: object) -> bool:
        # Preserve the equality contract block_contributions had as a plain
        # list (WhatIfResult dataclass equality relies on it).
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        # The builder is a closure; a pickled copy is the plain list this
        # sequence compares equal to.
        return (list, (list(self),))

    def __repr__(self) -> str:
        state = "pending" if self._arrays is None else f"{len(self)} blocks"
        return f"LazyBlockContributions({state})"


@dataclass
class WhatIfResult:
    """Answer to a what-if query plus evaluation metadata."""

    value: float
    aggregate: str
    output_attribute: str
    n_view_tuples: int = 0
    n_scope_tuples: int = 0
    n_blocks: int = 1
    block_contributions: Sequence[BlockContribution] = field(default_factory=list)
    backdoor_set: tuple[str, ...] = ()
    variant: str = "hyper"
    runtime_seconds: float = 0.0
    expected_qualifying_count: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __float__(self) -> float:
        return float(self.value)

    def payload(self) -> dict[str, Any]:
        """The v1 wire form (used by ``--json`` and both HTTP front doors).

        Serialized through :class:`repro.api.schemas.WhatIfAnswer` so every
        consumer sees one schema; the import is lazy to keep the core layer
        free of an api-package dependency at import time.
        """
        from ..api.schemas import WhatIfAnswer

        return WhatIfAnswer.from_result(self).to_json()

    def summary(self) -> str:
        return (
            f"{self.aggregate}(Post({self.output_attribute})) = {self.value:.4f} "
            f"[{self.variant}, scope={self.n_scope_tuples}/{self.n_view_tuples} tuples, "
            f"{self.n_blocks} blocks, backdoor={list(self.backdoor_set)}, "
            f"{self.runtime_seconds:.3f}s]"
        )


@dataclass
class HowToResult:
    """Answer to a how-to query: the recommended update and its predicted effect."""

    recommended_updates: list[AttributeUpdate]
    objective_value: float
    baseline_value: float
    maximize: bool = True
    verified_value: float | None = None
    per_attribute_choices: Mapping[str, Any] = field(default_factory=dict)
    n_candidates: int = 0
    n_ip_variables: int = 0
    n_ip_constraints: int = 0
    solver_status: str = "optimal"
    runtime_seconds: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def changed_attributes(self) -> list[str]:
        return [u.attribute for u in self.recommended_updates]

    def plan(self) -> dict[str, str]:
        """The paper's output form: attribute -> chosen update (or "no change")."""
        out = {str(k): str(v) for k, v in self.per_attribute_choices.items()}
        for update in self.recommended_updates:
            out.setdefault(update.attribute, update.function.describe())
        return out

    def payload(self) -> dict[str, Any]:
        """The v1 wire form (used by ``--json`` and both HTTP front doors)."""
        from ..api.schemas import HowToAnswer

        return HowToAnswer.from_result(self).to_json()

    def summary(self) -> str:
        direction = "maximize" if self.maximize else "minimize"
        plan = ", ".join(f"{k}: {v}" for k, v in self.plan().items()) or "no change"
        return (
            f"{direction} objective = {self.objective_value:.4f} "
            f"(baseline {self.baseline_value:.4f}) via [{plan}] "
            f"[{self.n_candidates} candidates, IP {self.n_ip_variables} vars / "
            f"{self.n_ip_constraints} constraints, {self.solver_status}, "
            f"{self.runtime_seconds:.3f}s]"
        )
