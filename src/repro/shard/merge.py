"""The associative merge protocol for per-shard partial results.

Every shard evaluates the *same* query over its own rows and emits a partial
carrying ``(row_indices, per-row contribution arrays)`` plus scalar metadata.
Partials form a commutative monoid under :meth:`merge` — merging is
concatenation of disjoint row sets — so any merge tree (sequential fold,
pairwise reduction, out-of-order arrival from a worker pool) produces the same
final answer.

Exactness: the finishers scatter merged per-row contributions back into
full-view-length arrays by global row position and then run the *same*
reduction as the unsharded engines (:func:`repro.core.whatif.finalize_what_if`
/ :func:`repro.core.whatif.combine_aggregate`).  Because scattering
restores the original row order, the floating-point fold is identical
operation for operation, and the merged answer is bitwise equal to the
unsharded one — the property ``merge(shards(Q)) == unsharded(Q)`` the shard
tests assert.

Carrier fields (``scope_mask``, ``block_of_row``, ``candidates``) are
full-view context needed only once per query; by convention shard 0 populates
them and :meth:`merge` propagates whichever side has them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..core.howto import CandidateUpdate, solve_how_to
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.results import HowToResult, WhatIfResult
from ..core.whatif import combine_aggregate, finalize_what_if
from ..exceptions import HypeRError

__all__ = [
    "HowToShardPartial",
    "MergedHowTo",
    "ShardMergeError",
    "WhatIfShardPartial",
    "merge_how_to",
    "merge_what_if",
    "solve_merged_how_to",
]


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
    if merged.scope_mask is None or merged.block_of_row is None or merged.n_blocks is None:
        raise ShardMergeError(
            "no shard partial carried the full-view context "
            "(scope_mask / block_of_row / n_blocks)"
        )
    count = _scatter(merged.n_rows, merged.row_indices, merged.count)
    sum_ = (
        np.zeros(merged.n_rows)
        if merged.sum is None
        else _scatter(merged.n_rows, merged.row_indices, merged.sum)
    )
    meta = dict(merged.meta)
    return finalize_what_if(
        query,
        count,
        sum_,
        scope_mask=merged.scope_mask,
        block_of_row=merged.block_of_row,
        n_blocks=merged.n_blocks,
        backdoor_set=tuple(meta.pop("backdoor_set", ())),
        variant=meta.pop("variant", "hyper"),
        metadata=meta,
    )


@dataclass
class HowToShardPartial:
    """Per-shard baseline and per-candidate contributions (one row block each)."""

    shard_index: int
    n_shards: int
    n_rows: int
    row_indices: np.ndarray
    baseline_count: np.ndarray
    baseline_sum: np.ndarray
    candidate_count: np.ndarray  # shape (n_candidates, n_own_rows)
    candidate_sum: np.ndarray  # shape (n_candidates, n_own_rows)
    signature: tuple  # (attribute, label) per candidate — must agree across shards
    meta: dict[str, Any] = field(default_factory=dict)
    #: carrier field — the concrete candidate objects (shard 0)
    candidates: list[CandidateUpdate] | None = None

    def merge(self, other: "HowToShardPartial") -> "HowToShardPartial":
        if self.n_rows != other.n_rows:
            raise ShardMergeError(
                f"cannot merge partials over views of {self.n_rows} and {other.n_rows} rows"
            )
        if self.signature != other.signature:
            raise ShardMergeError(
                "shards enumerated different candidate sets; the enumeration must be "
                "deterministic over the shared view"
            )
        return replace(
            self,
            shard_index=min(self.shard_index, other.shard_index),
            row_indices=np.concatenate([self.row_indices, other.row_indices]),
            baseline_count=np.concatenate([self.baseline_count, other.baseline_count]),
            baseline_sum=np.concatenate([self.baseline_sum, other.baseline_sum]),
            candidate_count=np.concatenate(
                [self.candidate_count, other.candidate_count], axis=1
            ),
            candidate_sum=np.concatenate(
                [self.candidate_sum, other.candidate_sum], axis=1
            ),
            meta=self.meta or other.meta,
            candidates=self.candidates if self.candidates is not None else other.candidates,
        )


@dataclass
class MergedHowTo:
    """Full-view contribution arrays of every candidate, ready for the IP."""

    candidates: list[CandidateUpdate]
    baseline_count: np.ndarray
    baseline_sum: np.ndarray
    candidate_count: np.ndarray  # shape (n_candidates, n_rows)
    candidate_sum: np.ndarray
    aggregate_name: str
    meta: dict[str, Any] = field(default_factory=dict)


def merge_how_to(
    query: HowToQuery, partials: Sequence[HowToShardPartial]
) -> MergedHowTo:
    """Fold shard partials into full-view candidate contribution arrays."""
    if not partials:
        raise ShardMergeError("merge_how_to needs at least one shard partial")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merged.merge(partial)
    _check_cover(merged.n_rows, merged.row_indices)
    if merged.candidates is None:
        raise ShardMergeError("no shard partial carried the candidate list")
    n = merged.n_rows
    n_candidates = len(merged.candidates)
    candidate_count = np.zeros((n_candidates, n))
    candidate_sum = np.zeros((n_candidates, n))
    candidate_count[:, merged.row_indices] = merged.candidate_count
    candidate_sum[:, merged.row_indices] = merged.candidate_sum
    meta = dict(merged.meta)
    return MergedHowTo(
        candidates=list(merged.candidates),
        baseline_count=_scatter(n, merged.row_indices, merged.baseline_count),
        baseline_sum=_scatter(n, merged.row_indices, merged.baseline_sum),
        candidate_count=candidate_count,
        candidate_sum=candidate_sum,
        aggregate_name=meta.pop("aggregate_name", query.objective_aggregate),
        meta=meta,
    )


def solve_merged_how_to(
    query: HowToQuery,
    merged: MergedHowTo,
    *,
    verify: Callable[[list[int]], tuple[np.ndarray, np.ndarray]] | None = None,
    runtime_seconds: float = 0.0,
) -> HowToResult:
    """Run the Section 4.3 integer program over merged shard contributions.

    ``verify`` re-evaluates the *combined* chosen updates (the what-if
    verification step of the unsharded engine): it receives the chosen
    candidate indices and must return merged full-view ``(count, sum)``
    contribution arrays for that combination — typically a second round
    through the shard pool.  ``None`` skips verification.
    """
    candidates = merged.candidates

    def value(count: np.ndarray, sum_: np.ndarray) -> float:
        return combine_aggregate(merged.aggregate_name, count, sum_)[0]

    baseline = value(merged.baseline_count, merged.baseline_sum)
    coefficients = {
        candidate: value(merged.candidate_count[i], merged.candidate_sum[i]) - baseline
        for i, candidate in enumerate(candidates)
    }
    index_of = {candidate: i for i, candidate in enumerate(candidates)}
    result = solve_how_to(
        query,
        candidates,
        baseline,
        coefficients,
        verify=(
            None
            if verify is None
            else lambda chosen: value(*verify([index_of[c] for c in chosen]))
        ),
        metadata=merged.meta,
    )
    result.runtime_seconds = runtime_seconds
    return result
