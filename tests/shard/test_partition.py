"""Shard partitioning: block boundaries, stability, balance, edge cases."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import CausalDAG, CausalEdge, Database, Relation
from repro.datasets import make_amazon_syn, make_german_syn
from repro.exceptions import CausalModelError
from repro.probdb.blocks import assign_blocks_to_shards, block_labels, shard_row_masks
from repro.shard import partition_database


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(240, seed=3)


class TestAssignBlocksToShards:
    def test_single_shard_owns_everything(self):
        assert assign_blocks_to_shards([5, 3, 2], 1).tolist() == [0, 0, 0]

    def test_deterministic_and_stable(self):
        sizes = [7, 1, 4, 4, 9, 2, 2, 6]
        first = assign_blocks_to_shards(sizes, 3)
        for _ in range(5):
            assert np.array_equal(assign_blocks_to_shards(sizes, 3), first)

    def test_balanced_loads(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 20, size=200)
        assignment = assign_blocks_to_shards(sizes, 4)
        loads = np.bincount(assignment, weights=sizes, minlength=4)
        # greedy LPT keeps the spread below the largest single block
        assert loads.max() - loads.min() <= sizes.max()

    def test_more_shards_than_blocks(self):
        assignment = assign_blocks_to_shards([10, 10], 5)
        assert set(assignment.tolist()) <= {0, 1, 2, 3, 4}
        assert len(assignment) == 2

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(CausalModelError):
            assign_blocks_to_shards([1], 0)

    def test_shard_row_masks_partition_rows(self, dataset):
        labels, n_blocks = block_labels(dataset.database, dataset.causal_dag)
        sizes = np.bincount(labels["Credit"], minlength=n_blocks)
        assignment = assign_blocks_to_shards(sizes, 3)
        masks = shard_row_masks(labels, assignment, 3)
        total = sum(mask["Credit"].astype(int) for mask in masks)
        assert np.array_equal(total, np.ones(len(dataset.database["Credit"]), dtype=int))


class TestPartitionDatabase:
    def test_partition_covers_every_row_exactly_once(self, dataset):
        for n_shards in (1, 2, 4, 7):
            plan = partition_database(dataset.database, dataset.causal_dag, n_shards)
            plan.validate_cover()
            assert len(plan) == n_shards

    def test_blocks_never_span_shards(self, dataset):
        plan = partition_database(dataset.database, dataset.causal_dag, 4)
        labels = plan[0].block_labels["Credit"]
        for shard in plan:
            owned_blocks = set(labels[shard.own_rows("Credit")].tolist())
            for other in plan:
                if other.index == shard.index:
                    continue
                other_blocks = set(labels[other.own_rows("Credit")].tolist())
                assert not (owned_blocks & other_blocks)

    def test_partition_is_deterministic(self, dataset):
        first = partition_database(dataset.database, dataset.causal_dag, 3)
        second = partition_database(dataset.database, dataset.causal_dag, 3)
        for a, b in zip(first, second):
            for relation in a.row_masks:
                assert np.array_equal(a.own_rows(relation), b.own_rows(relation))

    def test_multi_relation_partition(self):
        amazon = make_amazon_syn(40, seed=1)
        plan = partition_database(amazon.database, amazon.causal_dag, 3)
        plan.validate_cover()
        assert set(plan[0].row_masks) == set(amazon.database.relation_names)

    def test_no_dag_degenerates_to_row_chunks(self, dataset):
        plan = partition_database(dataset.database, None, 4)
        plan.validate_cover()
        # every tuple is its own block, so all shards carry real work
        assert all(int(shard.own_rows("Credit").sum()) > 0 for shard in plan)

    def test_single_block_leaves_one_working_shard(self):
        relation = Relation.from_columns(
            "R",
            {
                "ID": list(range(12)),
                "X": [float(i % 3) for i in range(12)],
                "Y": [float(i % 2) for i in range(12)],
            },
            key=["ID"],
        )
        dag = CausalDAG(["X", "Y"])
        dag.add_edge(CausalEdge("X", "Y", cross_tuple=True))
        plan = partition_database(Database([relation]), dag, 4)
        plan.validate_cover()
        assert plan.n_blocks == 1
        working = [shard for shard in plan if int(shard.own_rows("R").sum())]
        assert len(working) == 1 and int(working[0].own_rows("R").sum()) == 12

    def test_shards_are_picklable(self, dataset):
        plan = partition_database(dataset.database, dataset.causal_dag, 2)
        restored = pickle.loads(pickle.dumps(plan[1]))
        assert restored.index == 1 and restored.n_shards == 2
        assert np.array_equal(restored.own_rows("Credit"), plan[1].own_rows("Credit"))
        assert len(restored.database["Credit"]) == len(dataset.database["Credit"])
