"""Process-parallel execution (``docs/service.md``, "Shard-parallel execution";
Proposition 1 as an execution boundary): a persistent pool of worker
processes, each a whole :class:`~repro.service.session.HypeRService` over the
snapshot mapped once through shared memory, to which whole queries are dealt
by plan, so estimator fits run off the GIL and answers are the unsharded
engine's by construction.  ``HypeRService(execution="processes",
n_shards=...)`` drives it.

Kept until ROADMAP 1(d) only because ``perf/`` imports them, the row-scatter
of one what-if along the block decomposition (Proposition 1):
:func:`~repro.shard.partition.partition_database`, a shard's partial
(:func:`~repro.shard.local.what_if_partial`, served by a cluster node's
``kind="whatif"`` leg) and the associative merge
(:func:`~repro.shard.merge.merge_what_if`) that folds partials into an answer
**bitwise equal** to the unsharded path.
"""

from .local import what_if_partial
from .merge import ShardMergeError, WhatIfShardPartial, merge_what_if
from .partition import Shard, ShardPlan, partition_database
from .pool import ShardPool, ShardPoolError, ShardWorkerRuntime

__all__ = [
    "Shard",
    "ShardMergeError",
    "ShardPlan",
    "ShardPool",
    "ShardPoolError",
    "ShardWorkerRuntime",
    "WhatIfShardPartial",
    "merge_what_if",
    "partition_database",
    "what_if_partial",
]
