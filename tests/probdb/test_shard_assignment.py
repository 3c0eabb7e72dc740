"""``assign_blocks_to_shards`` equals the per-block greedy loop it replaced.

The partition is the wire contract of both the cluster and the process pool
(every node and every worker derives its slice from it without coordination),
so the run-at-a-time k-way merge must return the loop's array, element for
element.  The loop is kept here, verbatim, as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_amazon_syn, make_german_syn, make_student_syn
from repro.probdb.blocks import assign_blocks_to_shards, block_labels

N_CASES = 300


def oracle_assignment(block_sizes, n_shards: int) -> np.ndarray:
    """Longest-processing-time greedy, one block at a time (the old code)."""
    sizes = np.asarray(block_sizes, dtype=np.int64)
    shard_of_block = np.zeros(len(sizes), dtype=np.int64)
    if n_shards == 1 or len(sizes) == 0:
        return shard_of_block
    loads = [0] * n_shards
    order = sorted(range(len(sizes)), key=lambda b: (-int(sizes[b]), b))
    for block in order:
        shard = min(range(n_shards), key=lambda s: (loads[s], s))
        shard_of_block[block] = shard
        loads[shard] += int(sizes[block])
    return shard_of_block


def random_sizes(seed: int) -> tuple[np.ndarray, int]:
    rng = np.random.default_rng(seed)
    n_blocks = int(rng.integers(0, 60))
    n_shards = int(rng.integers(1, 7))
    shape = seed % 6
    if shape == 0:  # every block the same size (one run; German-Syn's shape)
        sizes = np.full(n_blocks, int(rng.integers(0, 5)))
    elif shape == 1:  # every size distinct (runs of one)
        sizes = rng.permutation(n_blocks) + 1
    elif shape == 2:  # zeros mixed in: empty blocks must not move a load
        sizes = rng.integers(0, 3, n_blocks)
    elif shape == 3:  # more shards than blocks
        sizes = rng.integers(1, 9, min(n_blocks, 3))
        n_shards = len(sizes) + int(rng.integers(1, 4))
    elif shape == 4:  # a few heavy blocks over a long tail of small ones
        sizes = np.r_[rng.integers(50, 500, n_blocks // 6), rng.integers(1, 4, n_blocks)]
        sizes = rng.permutation(sizes)
    else:  # few distinct sizes, long runs starting from unequal loads
        sizes = rng.choice([1, 2, 3, 7], n_blocks)
    return np.asarray(sizes, dtype=np.int64), n_shards


@pytest.mark.parametrize("seed", range(N_CASES))
def test_equals_the_greedy_loop(seed):
    sizes, n_shards = random_sizes(seed)
    actual = assign_blocks_to_shards(sizes, n_shards)
    assert actual.dtype == np.int64
    assert actual.tolist() == oracle_assignment(sizes, n_shards).tolist(), (
        sizes.tolist(),
        n_shards,
    )


def test_accepts_a_plain_list():
    assert assign_blocks_to_shards([5, 3, 3, 2, 0], 2).tolist() == [0, 1, 1, 0, 1]


@pytest.mark.parametrize(
    "make, n",
    [(make_german_syn, 600), (make_amazon_syn, 120), (make_student_syn, 150)],
    ids=["german", "amazon", "student"],
)
@pytest.mark.parametrize("n_shards", [2, 3, 5])
def test_bundled_datasets_equal_the_loop(make, n, n_shards):
    dataset = make(n, seed=1)
    labels, n_blocks = block_labels(dataset.database, dataset.causal_dag)
    sizes = np.zeros(n_blocks, dtype=np.int64)
    for relation_labels in labels.values():
        sizes += np.bincount(relation_labels, minlength=n_blocks)
    assert sizes.sum() == sum(len(relation) for relation in dataset.database)
    actual = assign_blocks_to_shards(sizes, n_shards)
    assert actual.tolist() == oracle_assignment(sizes, n_shards).tolist()
