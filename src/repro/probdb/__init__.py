"""Probabilistic-database layer: possible worlds, blocks, decomposed aggregates.

Implements the possible-world semantics (Definitions 1 and 3), the
block-independent decomposition used as HypeR's main query-evaluation
optimisation (Section 3.3), and the per-block composition of decomposable
aggregates (Proposition 1).
"""

from .blocks import Block, BlockDecomposition, decompose_into_blocks
from .decomposable import (
    BlockResult,
    check_decomposability,
    combine_block_results,
    decomposed_value,
)
from .distribution import DiscreteWorldDistribution, MonteCarloWorlds
from .possible_worlds import (
    PossibleWorld,
    count_possible_worlds,
    enumerate_possible_worlds,
    worlds_from_samples,
)

__all__ = [
    "Block",
    "BlockDecomposition",
    "BlockResult",
    "DiscreteWorldDistribution",
    "MonteCarloWorlds",
    "PossibleWorld",
    "check_decomposability",
    "combine_block_results",
    "count_possible_worlds",
    "decompose_into_blocks",
    "decomposed_value",
    "enumerate_possible_worlds",
    "worlds_from_samples",
]
