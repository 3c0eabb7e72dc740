"""Process-parallel execution: a pool of workers, each a whole query service.

* :mod:`~repro.shard.pool` — a persistent ``multiprocessing`` worker pool
  (stdlib only) with the snapshot mapped once per worker; every worker is a
  :class:`~repro.service.session.HypeRService`, and whole queries, what-if and
  how-to alike, one or a batch, are dealt to workers by plan and answered
  there, so estimator fits run off the GIL and answers are the unsharded
  engine's by construction;
* :mod:`~repro.shard.shm` — the shared-memory transport of the snapshot and
  of each commit's changed columns.

Kept until ROADMAP 1(d) only because ``perf/`` imports them, the row-scatter
of one what-if along the block decomposition (Proposition 1):
:func:`~repro.shard.partition.partition_database`, a shard's partial
(:func:`~repro.shard.local.what_if_partial`, served by a cluster node's
``kind="whatif"`` leg) and the associative merge
(:func:`~repro.shard.merge.merge_what_if`) that folds partials into an answer
**bitwise equal** to the unsharded path.

The service layer (:mod:`repro.service`) drives the pool through
``HypeRService(execution="processes", n_shards=...)``; see
``docs/service.md`` for the worker lifecycle and the pickling boundary.
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
