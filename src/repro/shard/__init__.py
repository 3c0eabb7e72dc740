"""Shard-parallel execution core: block-decomposition sharding (Proposition 1).

The paper's decomposability result makes what-if / how-to answers exact
aggregates of independent per-block contributions.  This package turns that
into an execution architecture:

* :mod:`~repro.shard.partition` — split a database into N self-contained
  :class:`Shard` snapshots along block-independent boundaries;
* :mod:`~repro.shard.pool` — a persistent ``multiprocessing`` worker pool
  (stdlib only) with the snapshot mapped once per worker; whole queries, what-if
  and how-to alike, are dealt to workers by plan and answered there unsharded,
  so estimator fits run off the GIL and answers are the unsharded engine's by
  construction;
* :mod:`~repro.shard.merge` — the associative merge protocol folding a single
  what-if's per-shard partials into an answer **bitwise equal** to the
  unsharded path (the one row-scatter left; it leaves with ROADMAP 1(d) + 2(d)).

The service layer (:mod:`repro.service`) drives this stack through
``HypeRService(execution="processes", n_shards=...)``; see
``docs/service.md`` for the shard lifecycle and the pickling boundary.
"""

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
]
