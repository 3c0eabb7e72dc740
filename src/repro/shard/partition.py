"""Partitioning a database into shard snapshots along block boundaries.

Proposition 1 makes what-if answers exact aggregates of independent per-block
contributions, so the block-independent decomposition
(:mod:`repro.probdb.blocks`) is a natural *execution* boundary: a
:class:`Shard` owns a subset of blocks — and therefore a disjoint set of rows
of every relation — and can compute the contributions of exactly those rows
with no coordination beyond the final merge (:mod:`repro.shard.merge`).

Kept until ROADMAP 1(d) only because ``perf/`` imports it: no commit path
partitions any more (a pool worker and a cluster node hold the whole
database); a cluster node slices its latest generation lazily for the
``kind="whatif"`` legs of ``/v1/partial``.

Exactness contract
------------------
A shard snapshot deliberately carries the **full** database alongside its
row-ownership masks.  Estimator fitting must see the same training rows in the
same order as an unsharded evaluation, otherwise the fitted regressors (and
with them every prediction) drift numerically; fitting on the full view is
what makes shard-merged answers *bitwise* equal to the unsharded path.  Only
prediction and contribution accumulation are restricted to the shard's own
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..causal.dag import CausalDAG
from ..exceptions import CausalModelError
from ..probdb.blocks import assign_blocks_to_shards, block_labels, shard_row_masks
from ..relational.database import Database

__all__ = ["Shard", "ShardPlan", "partition_database"]


@dataclass
class Shard:
    """One self-contained unit of a block-decomposition partition.

    Parameters
    ----------
    index / n_shards:
        Position of this shard within its :class:`ShardPlan`.
    database:
        The full database snapshot (shared training data — see the module
        docstring for why this is not a row subset).
    row_masks:
        Boolean mask per relation marking the rows this shard *owns*: the rows
        whose per-row contributions it computes.  Masks of the same relation
        across a plan's shards partition the relation exactly.
    block_labels / n_blocks:
        The block assignment of :func:`repro.probdb.blocks.block_labels` the
        partition was derived from (workers inject it into query preparation
        so every shard reports identical block metadata).
    shard_of_block:
        The stable block-to-shard assignment (``assign_blocks_to_shards``).
    """

    index: int
    n_shards: int
    database: Database
    row_masks: dict[str, np.ndarray]
    block_labels: dict[str, np.ndarray] = field(repr=False)
    n_blocks: int = 1
    shard_of_block: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def own_rows(self, relation: str) -> np.ndarray:
        """Boolean ownership mask over ``relation``'s rows."""
        try:
            return self.row_masks[relation]
        except KeyError as exc:
            raise CausalModelError(
                f"shard {self.index} has no row mask for relation {relation!r}"
            ) from exc

    def __repr__(self) -> str:
        sizes = {rel: int(mask.sum()) for rel, mask in self.row_masks.items()}
        return f"Shard({self.index}/{self.n_shards}, rows={sizes})"


@dataclass
class ShardPlan:
    """The full partition: ``n_shards`` shards covering every tuple exactly once."""

    shards: list[Shard]
    n_blocks: int

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __getitem__(self, index: int) -> Shard:
        return self.shards[index]

    def validate_cover(self) -> None:
        """Check the partition property: each row is owned by exactly one shard."""
        if not self.shards:
            raise CausalModelError("a shard plan needs at least one shard")
        for relation in self.shards[0].row_masks:
            owners = np.zeros(len(self.shards[0].row_masks[relation]), dtype=int)
            for shard in self.shards:
                owners += shard.own_rows(relation).astype(int)
            if owners.size and (owners.min() != 1 or owners.max() != 1):
                raise CausalModelError(
                    f"rows of relation {relation!r} are not partitioned exactly "
                    f"(ownership counts range {owners.min()}..{owners.max()})"
                )


def partition_database(
    database: Database,
    causal_dag: CausalDAG | None,
    n_shards: int,
    *,
    blocks: tuple[dict[str, np.ndarray], int] | None = None,
) -> ShardPlan:
    """Partition ``database`` into ``n_shards`` shards along block boundaries.

    ``blocks`` may inject a pre-computed ``(labels, n_blocks)`` pair from
    :func:`repro.probdb.blocks.block_labels` (the service layer caches it).
    With ``causal_dag=None`` every tuple is its own block — the paper's
    tuple-independence default — so the partition degenerates to balanced row
    chunks.  When there are fewer blocks than shards, trailing shards own no
    rows (the single-block edge case leaves one working shard).
    """
    if n_shards < 1:
        raise CausalModelError(f"n_shards must be at least 1, got {n_shards}")
    labels, n_blocks = blocks if blocks is not None else block_labels(database, causal_dag)
    block_sizes = np.zeros(n_blocks, dtype=np.int64)
    for relation_labels in labels.values():
        block_sizes += np.bincount(relation_labels, minlength=n_blocks)
    shard_of_block = assign_blocks_to_shards(block_sizes, n_shards)
    masks = shard_row_masks(labels, shard_of_block, n_shards)
    shards = [
        Shard(
            index=i,
            n_shards=n_shards,
            database=database,
            row_masks=masks[i],
            block_labels=labels,
            n_blocks=n_blocks,
            shard_of_block=shard_of_block,
        )
        for i in range(n_shards)
    ]
    return ShardPlan(shards=shards, n_blocks=n_blocks)
