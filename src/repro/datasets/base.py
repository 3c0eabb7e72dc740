"""Common container for the synthetic benchmark datasets.

The paper evaluates on two real datasets (UCI Adult, UCI German credit), one
scraped dataset (Amazon products/reviews) and two synthetic ones (German-Syn,
Student-Syn).  Offline we cannot ship the real/scraped data, so every dataset
here is generated from a structural causal model whose graph matches the one
the paper uses for that dataset (each generator's module says which).  Each
dataset bundles:

* the relational ``database`` instance,
* the attribute-level ``causal_dag`` (HypeR's background knowledge),
* the ``view_scm`` — the structural model over the relevant-view columns, used
  as the ground-truth oracle in the accuracy experiments,
* a ``default_use`` spec giving the relevant view the paper's queries run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..causal.dag import CausalDAG
from ..causal.scm import StructuralCausalModel
from ..relational.database import Database
from ..relational.view import UseSpec

__all__ = ["SyntheticDataset"]


@dataclass
class SyntheticDataset:
    """A generated dataset plus the causal knowledge HypeR needs to query it."""

    name: str
    database: Database
    causal_dag: CausalDAG
    default_use: UseSpec
    view_scm: StructuralCausalModel | None = None
    description: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.database.total_rows

    def summary(self) -> str:
        rows = ", ".join(f"{rel.name}={len(rel)}" for rel in self.database)
        return f"{self.name}: {rows} rows; DAG {len(self.causal_dag)} attributes"
