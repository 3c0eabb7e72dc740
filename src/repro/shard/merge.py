"""The associative merge protocol for per-shard what-if partials.

Kept until ROADMAP 1(d) only because ``perf/`` imports it: no query path of
``src/`` row-scatters any more — the pool and the cluster move every whole
query to one worker or node instead.  What is left folds the partials of
:func:`repro.shard.local.what_if_partial` (a cluster node's ``kind="whatif"``
leg).

Every shard evaluates the *same* what-if over its own rows and emits a partial
carrying ``(row_indices, per-row contribution arrays)`` plus scalar metadata.
Partials form a commutative monoid under :meth:`merge` — merging is
concatenation of disjoint row sets — so any merge tree (sequential fold,
pairwise reduction, out-of-order arrival from a worker pool) produces the same
final answer.

Exactness: the finisher scatters merged per-row contributions back into
full-view-length arrays by global row position, splits them at the full
plan's term rows into what the unsharded kernel returns — bases that are
``+0.0`` at those rows and the contributions there
(:meth:`repro.core.whatif.Contributions.from_per_row`) — and then runs the
*same* reduction as the unsharded engine
(:func:`repro.core.whatif.finalize_what_if`).  Per-row values are row-stable,
and scattering restores the original row order, so both parts of the
two-part sum are folded identically operation for operation, and the merged
answer is bitwise equal to the unsharded one — the property
``merge(shards(Q)) == unsharded(Q)`` the shard tests assert.

Carrier fields (``scope_mask``, ``block_of_row``, ``term_rows``) are
full-view context needed only once per query; by convention shard 0
populates them and :meth:`merge` keeps the first one present.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from ..core.queries import WhatIfQuery
from ..core.results import WhatIfResult
from ..core.whatif import Contributions, finalize_what_if
from ..exceptions import HypeRError

__all__ = ["ShardMergeError", "WhatIfShardPartial", "merge_what_if"]


class ShardMergeError(HypeRError):
    """A set of shard partials does not form an exact cover of the view."""


def _scatter(n_rows: int, row_indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros(n_rows)
    out[row_indices] = values
    return out


def _concat_optional(
    left: np.ndarray | None, right: np.ndarray | None, n_left: int, n_right: int
) -> np.ndarray | None:
    """Concatenate elidable (all-zero) arrays; ``None`` stands for zeros."""
    if left is None and right is None:
        return None
    if left is None:
        left = np.zeros(n_left)
    if right is None:
        right = np.zeros(n_right)
    return np.concatenate([left, right])


def _check_cover(n_rows: int, row_indices: np.ndarray) -> None:
    owners = np.bincount(row_indices, minlength=n_rows)
    if len(owners) > n_rows or (n_rows and (owners.min() != 1 or owners.max() != 1)):
        raise ShardMergeError(
            "shard partials do not partition the view rows exactly "
            f"(ownership counts range {owners.min() if len(owners) else 0}.."
            f"{owners.max() if len(owners) else 0})"
        )


@dataclass
class WhatIfShardPartial:
    """Per-shard what-if contributions over the shard's own view rows.

    ``sum`` may be ``None`` when the query's aggregate needs no output values
    (``count``): the merged sum column is identically zero, so shipping it
    across the process boundary would be wasted IPC.
    """

    shard_index: int
    n_shards: int
    n_rows: int
    row_indices: np.ndarray
    count: np.ndarray
    sum: np.ndarray | None
    meta: dict[str, Any] = field(default_factory=dict)
    #: carrier fields — full-view context sent by one shard (shard 0)
    scope_mask: np.ndarray | None = None
    block_of_row: np.ndarray | None = None
    n_blocks: int | None = None
    #: the full plan's inclusion–exclusion term rows (empty for Indep)
    term_rows: np.ndarray | None = None

    def merge(self, other: "WhatIfShardPartial") -> "WhatIfShardPartial":
        """Associative combination: the partial covering both row sets."""
        if self.n_rows != other.n_rows:
            raise ShardMergeError(
                f"cannot merge partials over views of {self.n_rows} and {other.n_rows} rows"
            )
        return replace(
            self,
            shard_index=min(self.shard_index, other.shard_index),
            row_indices=np.concatenate([self.row_indices, other.row_indices]),
            count=np.concatenate([self.count, other.count]),
            sum=_concat_optional(
                self.sum, other.sum, len(self.row_indices), len(other.row_indices)
            ),
            meta=self.meta or other.meta,
            scope_mask=self.scope_mask if self.scope_mask is not None else other.scope_mask,
            block_of_row=(
                self.block_of_row if self.block_of_row is not None else other.block_of_row
            ),
            n_blocks=self.n_blocks if self.n_blocks is not None else other.n_blocks,
            term_rows=self.term_rows if self.term_rows is not None else other.term_rows,
        )


def merge_what_if(
    query: WhatIfQuery, partials: Sequence[WhatIfShardPartial]
) -> WhatIfResult:
    """Fold shard partials into the exact :class:`WhatIfResult`."""
    if not partials:
        raise ShardMergeError("merge_what_if needs at least one shard partial")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merged.merge(partial)
    _check_cover(merged.n_rows, merged.row_indices)
    if any(
        carried is None
        for carried in (merged.scope_mask, merged.block_of_row, merged.n_blocks, merged.term_rows)
    ):
        raise ShardMergeError(
            "no shard partial carried the full-view context "
            "(scope_mask / block_of_row / n_blocks / term_rows)"
        )
    contributions = Contributions.from_per_row(
        _scatter(merged.n_rows, merged.row_indices, merged.count),
        None if merged.sum is None else _scatter(merged.n_rows, merged.row_indices, merged.sum),
        merged.term_rows,
    )
    meta = dict(merged.meta)
    return finalize_what_if(
        query,
        contributions,
        scope_mask=merged.scope_mask,
        block_of_row=merged.block_of_row,
        n_blocks=merged.n_blocks,
        backdoor_set=tuple(meta.pop("backdoor_set", ())),
        variant=meta.pop("variant", "hyper"),
        metadata=meta,
    )
