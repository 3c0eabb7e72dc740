"""Causal substrate (paper §2.2, §3.3, A.3): the probabilistic relational causal
model (PRCM) machinery the paper builds on — attribute-level causal DAGs with
cross-tuple edges over stdlib adjacency dicts, d-separation as one
reachability pass (not a path enumeration), the backdoor criterion,
structural equations and models for data generation and ground truth,
summary functions and the augmented graph of multi-relation queries.

The per-tuple graph is never grounded: :mod:`repro.probdb.blocks` decomposes
over tuples without it.  Its explicit grounding and the path-enumeration
oracle the reachability pass is held to are test oracles
(``tests/causal/ground_graph.py``, ``tests/causal/oracles.py``).
"""

from .augmented import AggregatedNode, augment_causal_dag
from .backdoor import (
    eligible_adjustment_attributes,
    find_backdoor_set,
    minimal_backdoor_set,
    satisfies_backdoor,
)
from .dag import CausalDAG, CausalEdge
from .dseparation import d_separated
from .scm import StructuralCausalModel
from .structural import (
    DiscreteCPD,
    ExogenousDistribution,
    FunctionalEquation,
    GaussianNoise,
    LinearEquation,
    LogisticEquation,
    NoNoise,
    NoiseModel,
    StructuralEquation,
    UniformNoise,
)
from .summary import AggregateSummary, IdentitySummary, SummaryFunction, make_summary

__all__ = [
    "AggregateSummary",
    "AggregatedNode",
    "CausalDAG",
    "CausalEdge",
    "DiscreteCPD",
    "ExogenousDistribution",
    "FunctionalEquation",
    "GaussianNoise",
    "IdentitySummary",
    "LinearEquation",
    "LogisticEquation",
    "NoNoise",
    "NoiseModel",
    "StructuralCausalModel",
    "StructuralEquation",
    "SummaryFunction",
    "UniformNoise",
    "augment_causal_dag",
    "d_separated",
    "eligible_adjustment_attributes",
    "find_backdoor_set",
    "make_summary",
    "minimal_backdoor_set",
    "satisfies_backdoor",
]
