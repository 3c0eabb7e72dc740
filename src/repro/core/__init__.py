"""HypeR core (paper §3–§5), the paper's primary contribution: probabilistic
what-if queries answered by backdoor-adjusted counterfactual regression over a
block-decomposed relevant view, and how-to queries answered by the §4.3 0/1
program over the candidate update space, solved by greedy; the ``HypeR``
facade, its configuration, the update functions, the query and result objects
and the baselines of the evaluation.
"""

from .baselines import GroundTruthOracle, make_indep_engine, naive_possible_world_value
from .config import EngineConfig, Variant
from .engine import HypeR
from .estimator import PostUpdateEstimator, build_view_dag
from .howto import CandidateUpdate, HowToEngine, PreparedHowTo
from .queries import HowToQuery, LimitConstraint, WhatIfQuery
from .results import BlockContribution, HowToResult, WhatIfResult
from .updates import (
    AddConstant,
    AttributeUpdate,
    HypotheticalUpdate,
    MultiplyBy,
    SetTo,
    UpdateFunction,
)
from .whatif import PreparedWhatIf, WhatIfEngine, regressor_cache_key

__all__ = [
    "AddConstant",
    "AttributeUpdate",
    "BlockContribution",
    "CandidateUpdate",
    "EngineConfig",
    "GroundTruthOracle",
    "HowToEngine",
    "HowToQuery",
    "HowToResult",
    "HypeR",
    "HypotheticalUpdate",
    "LimitConstraint",
    "MultiplyBy",
    "PostUpdateEstimator",
    "PreparedHowTo",
    "PreparedWhatIf",
    "SetTo",
    "UpdateFunction",
    "Variant",
    "WhatIfEngine",
    "WhatIfQuery",
    "WhatIfResult",
    "build_view_dag",
    "make_indep_engine",
    "naive_possible_world_value",
    "regressor_cache_key",
]
