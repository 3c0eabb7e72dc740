"""Probabilistic-database layer (paper §3.2, §3.3, Proposition 1): the
possible-world semantics (Definitions 1 and 3), the block-independent
decomposition that is HypeR's main query-evaluation optimisation — one
labelling, :func:`~repro.probdb.blocks.block_labels`, serves every engine —
and the per-block composition of decomposable aggregates.
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
