"""Structural causal models: sampling and interventional ground truth.

A :class:`StructuralCausalModel` bundles an attribute-level :class:`CausalDAG`
with a structural equation (or exogenous distribution for roots) per attribute.
It serves two roles in the reproduction:

1. *Data generation* — the synthetic datasets (German-Syn, Student-Syn,
   Amazon-Syn, Adult-Syn) are draws from such a model, exactly as in the paper.
2. *Ground truth* — the accuracy experiments (Figure 10, Section 5.4) compare
   HypeR's estimates against the true post-intervention expectation computed by
   re-evaluating the structural equations under the ``do()`` operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import CausalModelError
from .dag import CausalDAG
from .structural import ExogenousDistribution, StructuralEquation

__all__ = ["StructuralCausalModel"]


@dataclass
class StructuralCausalModel:
    """A PRCM over the attributes of a single (possibly summarised) relation.

    Parameters
    ----------
    dag:
        The attribute-level causal graph.
    equations:
        Structural equation per non-root attribute.  Every equation's declared
        parents must match the DAG's parent set for that attribute.
    exogenous:
        Marginal distribution per root attribute.
    """

    dag: CausalDAG
    equations: Mapping[str, StructuralEquation] = field(default_factory=dict)
    exogenous: Mapping[str, ExogenousDistribution] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attr in self.dag.nodes:
            parents = self.dag.parents(attr)
            if parents:
                if attr not in self.equations:
                    raise CausalModelError(
                        f"attribute {attr!r} has parents {parents} but no structural equation"
                    )
                declared = set(self.equations[attr].parents)
                if declared != set(parents):
                    raise CausalModelError(
                        f"structural equation for {attr!r} declares parents {sorted(declared)} "
                        f"but the DAG says {parents}"
                    )
            else:
                if attr not in self.exogenous and attr not in self.equations:
                    raise CausalModelError(
                        f"root attribute {attr!r} needs an exogenous distribution"
                    )

    # -- observational sampling ---------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Draw ``n`` i.i.d. units from the observational distribution."""
        columns: dict[str, np.ndarray] = {}
        for attr in self.dag.topological_order():
            columns[attr] = self._sample_attribute(attr, columns, rng, n)
        return columns

    def _sample_attribute(
        self,
        attr: str,
        columns: Mapping[str, np.ndarray],
        rng: np.random.Generator,
        n: int,
    ) -> np.ndarray:
        parents = self.dag.parents(attr)
        if not parents and attr in self.exogenous:
            return self.exogenous[attr].sample(rng, n)
        equation = self.equations[attr]
        parent_values = {p: columns[p] for p in equation.parents}
        return equation.sample(parent_values, rng, n)

    # -- interventions -----------------------------------------------------------

    def intervene(
        self,
        columns: Mapping[str, Sequence[Any]],
        interventions: Mapping[str, Any],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        """Apply ``do(attr := value)`` to observed units and re-simulate descendants.

        ``columns`` holds the observed (pre-update) values; ``interventions``
        maps attribute names to either a scalar (applied to every unit), an
        array aligned with the units, or a callable mapping the pre-update
        column to the post-update column (this models the paper's
        ``Update(B) = f(Pre(B))`` forms).  Attributes that are neither
        intervened on nor descendants of an intervened attribute keep their
        observed values; descendants are re-drawn from their structural
        equations with fresh exogenous noise.
        """
        columns = {k: np.asarray(v, dtype=object) for k, v in columns.items()}
        sizes = {len(v) for v in columns.values()}
        if len(sizes) != 1:
            raise CausalModelError("all observed columns must have the same length")
        n = sizes.pop()

        unknown = [a for a in interventions if a not in self.dag]
        if unknown:
            raise CausalModelError(f"cannot intervene on unknown attributes {unknown}")

        affected: set[str] = set()
        for attr in interventions:
            affected |= self.dag.descendants(attr)
        affected -= set(interventions)

        post: dict[str, np.ndarray] = {}
        for attr in self.dag.topological_order():
            if attr in interventions:
                post[attr] = self._materialise_intervention(
                    interventions[attr], columns.get(attr), n
                )
            elif attr in affected:
                equation = self.equations[attr]
                parent_values = {p: self._as_float_if_possible(post[p]) for p in equation.parents}
                post[attr] = np.asarray(equation.sample(parent_values, rng, n), dtype=object)
            else:
                if attr not in columns:
                    raise CausalModelError(
                        f"observed data is missing attribute {attr!r} required by the model"
                    )
                post[attr] = columns[attr]
        return post

    @staticmethod
    def _as_float_if_possible(values: np.ndarray) -> np.ndarray:
        try:
            return np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            return values

    @staticmethod
    def _materialise_intervention(
        intervention: Any, observed: np.ndarray | None, n: int
    ) -> np.ndarray:
        if callable(intervention):
            if observed is None:
                raise CausalModelError(
                    "a functional intervention needs the observed column to transform"
                )
            return np.asarray([intervention(v) for v in observed], dtype=object)
        if isinstance(intervention, (list, tuple, np.ndarray)):
            values = np.asarray(intervention, dtype=object)
            if len(values) != n:
                raise CausalModelError(
                    f"intervention array has length {len(values)}, expected {n}"
                )
            return values
        return np.asarray([intervention] * n, dtype=object)
