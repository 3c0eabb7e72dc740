"""The array decomposition equals the union–find it replaced, partition for partition.

``repro.probdb.blocks`` finds blocks as connected components of the tuple <->
key-value graph (one ``np.unique`` per linking rule, min-label propagation).
The dict-based union–find over ``(relation, row)`` tuples that it replaced is
kept here, verbatim, as the oracle: on 200 seeded random databases (and on
the bundled datasets) ``block_labels`` must return the same arrays and
the same ``n_blocks``, and ``decompose_into_blocks`` the same blocks.

The generator covers what the three preserved edge semantics hinge on: FK
links with orphan children, duplicate parent keys with and without children,
``None`` keys, composite keys, keys stored as floats on one side and objects on
the other; cross-tuple edges whose ``within`` lives in the own relation, in the
FK-linked relation (either direction) or is absent; ``None`` group values;
chained rules over a third relation; relation names whose sorted order differs
from their insertion order; an occasional empty relation.
"""

from __future__ import annotations

import random
from typing import Any, Hashable

import numpy as np
import pytest

from repro import CausalDAG, CausalEdge, Database, ForeignKey, Relation
from repro.datasets import make_amazon_syn, make_german_syn, make_student_syn
from repro.exceptions import CausalModelError
from repro.probdb.blocks import Block, BlockDecomposition, block_labels, decompose_into_blocks

from . import row_count

N_CASES = 200


# ---------------------------------------------------------------------------
# Oracle: the union–find decomposition as it stood before the array rewrite
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union–find over arbitrary hashable items with path compression."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._rank: dict[Hashable, int] = {}

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Hashable) -> Hashable:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1


def _group_values(database: Database, relation: str, within: str | None) -> list[Any]:
    """Grouping value per row of ``relation`` (resolving ``within`` through FKs)."""
    rel = database[relation]
    if within is None:
        return [("__all__",)] * len(rel)
    if within in rel.schema:
        return list(rel.column_view(within))
    owner, attribute = database.resolve_attribute(within)
    links = database.schema.links_between(relation, owner)
    if not links:
        raise CausalModelError(
            f"grouping attribute {within!r} is not in {relation!r} and no foreign key links "
            f"{relation!r} to {owner!r}"
        )
    fk = links[0]
    other = database[owner]
    if fk.parent == owner:
        own_attrs, other_attrs = fk.child_attributes, fk.parent_attributes
    else:
        own_attrs, other_attrs = fk.parent_attributes, fk.child_attributes
    index: dict[tuple[Any, ...], Any] = {}
    for i in range(len(other)):
        index[tuple(other.column_view(a)[i] for a in other_attrs)] = other.column_view(attribute)[i]
    return [
        index.get(tuple(rel.column_view(a)[j] for a in own_attrs))
        for j in range(len(rel))
    ]


def _merge_linked(
    uf: _UnionFind, database: Database, relation_a: str, relation_b: str, *, mutant: bool = False
) -> None:
    links = database.schema.links_between(relation_a, relation_b)
    if not links:
        raise CausalModelError(
            f"a causal edge crosses relations {relation_a!r} and {relation_b!r} but no "
            "foreign key links them"
        )
    fk = links[0]
    parent = database[fk.parent]
    child = database[fk.child]
    parent_index: dict[tuple[Any, ...], list[int]] = {}
    for i in range(len(parent)):
        value = tuple(parent.column_view(a)[i] for a in fk.parent_attributes)
        parent_index.setdefault(value, []).append(i)
    for j in range(len(child)):
        value = tuple(child.column_view(a)[j] for a in fk.child_attributes)
        for i in parent_index.get(value, []):
            uf.union((fk.parent, i), (fk.child, j))
    if mutant:  # the wrong implementation: parents sharing a key merge, child or no child
        for rows in parent_index.values():
            for i in rows[1:]:
                uf.union((fk.parent, rows[0]), (fk.parent, i))


def _merge_cross_tuple(
    uf: _UnionFind,
    database: Database,
    relation_a: str,
    relation_b: str,
    within: str | None,
) -> None:
    """Merge all tuples of the two relations that fall into the same group."""
    for relation in {relation_a, relation_b}:
        groups: dict[Any, int] = {}
        values = _group_values(database, relation, within)
        for row, value in enumerate(values):
            if value is None:
                continue
            if value in groups:
                uf.union((relation, groups[value]), (relation, row))
            else:
                groups[value] = row
    if relation_a != relation_b:
        # Tie the two relations together per shared group value.
        values_a = _group_values(database, relation_a, within)
        values_b = _group_values(database, relation_b, within)
        first_a: dict[Any, int] = {}
        for row, value in enumerate(values_a):
            if value is not None and value not in first_a:
                first_a[value] = row
        for row, value in enumerate(values_b):
            if value is not None and value in first_a:
                uf.union((relation_a, first_a[value]), (relation_b, row))


def _union_tuples(database: Database, dag: CausalDAG | None, *, mutant: bool = False) -> _UnionFind:
    uf = _UnionFind()
    for relation in database.relation_names:
        for row in range(len(database[relation])):
            uf.add((relation, row))

    if dag is not None:
        owner_of: dict[str, str] = {}
        for node in dag.nodes:
            rel, _attr = database.resolve_attribute(node)
            owner_of[node] = rel

        for edge in dag.edges:
            src_rel = owner_of[edge.source]
            dst_rel = owner_of[edge.target]
            if edge.cross_tuple:
                _merge_cross_tuple(uf, database, src_rel, dst_rel, edge.within)
            elif src_rel != dst_rel:
                _merge_linked(uf, database, src_rel, dst_rel, mutant=mutant)
            # within-tuple edges never merge tuples
    return uf


def oracle_block_labels(
    database: Database, dag: CausalDAG | None, *, mutant: bool = False
) -> tuple[dict[str, np.ndarray], int]:
    uf = _union_tuples(database, dag, mutant=mutant)
    root_of: dict[tuple[str, int], tuple[str, int]] = {}
    smallest: dict[tuple[str, int], tuple[str, int]] = {}
    for relation in database.relation_names:
        for row in range(len(database[relation])):
            tid = (relation, row)
            root = uf.find(tid)
            root_of[tid] = root
            if root not in smallest or tid < smallest[root]:
                smallest[root] = tid
    ordered_roots = sorted(smallest, key=lambda r: smallest[r])
    index_of = {root: i for i, root in enumerate(ordered_roots)}
    labels = {
        relation: np.fromiter(
            (index_of[root_of[(relation, row)]] for row in range(len(database[relation]))),
            dtype=np.int64,
            count=len(database[relation]),
        )
        for relation in database.relation_names
    }
    return labels, len(ordered_roots)


# ---------------------------------------------------------------------------
# Generator of small multi-relation databases with their causal models
# ---------------------------------------------------------------------------


def _key_column(rng: random.Random, n: int, kind: str, pool: int, nulls: float) -> list[Any]:
    """``n`` key values: ints (a float64 column), ints with ``None`` or strings (object)."""
    values: list[Any] = [rng.randrange(pool) for _ in range(n)]
    if kind == "str":
        values = [f"k{v}" for v in values]
    if kind != "int":
        values = [None if i and rng.random() < nulls else v for i, v in enumerate(values)]
    return values


def random_case(seed: int) -> tuple[Database, CausalDAG]:
    rng = random.Random(seed)
    # sorted-name order (tuple ids, block numbering) vs insertion order (label dict)
    parent, child, third = rng.choice(
        [("Parent", "Child", "Third"), ("Zeta", "Alpha", "Mid"), ("B", "C", "A")]
    )
    three = rng.random() < 0.4
    composite = rng.random() < 0.3
    kinds = ["int", "int?", "str"]
    parent_kind, child_kind = rng.choice(kinds), rng.choice(kinds)
    if "str" in (parent_kind, child_kind):
        parent_kind = child_kind = "str"  # ints never equal strings: nothing would link
    n_parent, n_child, n_third = rng.randint(1, 8), rng.randint(1, 12), rng.randint(1, 6)
    pool = rng.randint(2, 6)  # small pools: duplicate parent keys, shared and orphan values

    def relation(name: str, n: int, columns: dict[str, list[Any]]) -> Relation:
        columns = {"id": list(range(n)), "x": [rng.random() for _ in range(n)], **columns}
        rel = Relation.from_columns(name, columns, key=["id"])
        if rng.random() < 0.05:
            rel = rel.filter(np.zeros(n, dtype=bool))
        return rel

    groups = ["g0", "g1", "g2", None]
    parent_columns = {
        "k": _key_column(rng, n_parent, parent_kind, pool, 0.2),
        "pg": [rng.choice(groups) if i else "g0" for i in range(n_parent)],
        "g": [float(rng.randrange(3)) for _ in range(n_parent)],
    }
    child_columns = {
        "fk": _key_column(rng, n_child, child_kind, pool + 1, 0.2),
        "cg": [rng.choice(groups) if i else "g1" for i in range(n_child)],
        "g": [rng.randrange(4) if i and rng.random() < 0.8 else None for i in range(n_child)],
    }
    child_columns["g"][0] = 1
    parent_attrs, child_attrs = ["k"], ["fk"]
    if composite:
        parent_columns["k2"] = _key_column(rng, n_parent, "int?", 2, 0.2)
        child_columns["fk2"] = _key_column(rng, n_child, "int", 2, 0.0)
        parent_attrs, child_attrs = ["k", "k2"], ["fk", "fk2"]
    relations = [
        relation(parent, n_parent, parent_columns),
        relation(child, n_child, child_columns),
    ]
    foreign_keys = [ForeignKey(child, tuple(child_attrs), parent, tuple(parent_attrs))]
    if three:
        relations.append(
            relation(third, n_third, {"ck": [rng.randrange(n_child + 1) for _ in range(n_third)]})
        )
        foreign_keys.append(ForeignKey(third, ("ck",), child, ("id",)))
    rng.shuffle(relations)
    database = Database(relations, foreign_keys)

    candidates = [
        CausalEdge(f"{parent}.x", f"{parent}.g"),  # within-tuple: links nothing
        CausalEdge(f"{parent}.x", f"{child}.x"),  # along the FK
        CausalEdge(f"{parent}.k", f"{child}.x"),  # a second edge of the same rule
        CausalEdge(f"{parent}.x", f"{parent}.pg", cross_tuple=True, within="pg"),
        CausalEdge(f"{child}.x", f"{child}.cg", cross_tuple=True, within="cg"),
        CausalEdge(f"{parent}.pg", f"{child}.cg", cross_tuple=True, within="pg"),  # child via FK
        CausalEdge(f"{parent}.g", f"{child}.x", cross_tuple=True, within="cg"),  # parent via FK
        CausalEdge(f"{parent}.x", f"{child}.g", cross_tuple=True, within="g"),  # own columns
        CausalEdge(f"{parent}.g", f"{child}.g", cross_tuple=True),  # no grouping: all merge
        CausalEdge(f"{child}.g", f"{child}.x", cross_tuple=True),
    ]
    if three:
        candidates += [
            CausalEdge(f"{child}.x", f"{third}.x"),
            CausalEdge(f"{child}.cg", f"{third}.x", cross_tuple=True, within="cg"),
        ]
    # the ungrouped edges swallow everything: keep them rare so partitions stay interesting
    weights = [0.15 if e.cross_tuple and e.within is None else 1.0 for e in candidates]
    edges = {
        (e.source, e.target): e
        for e in rng.choices(candidates, weights=weights, k=rng.randint(0, 4))
    }
    nodes = sorted({n for e in candidates for n in (e.source, e.target)})
    return database, CausalDAG(nodes=nodes, edges=list(edges.values()))


def assert_same_labels(actual, expected, context: str) -> None:
    (labels, n_blocks), (want, want_blocks) = actual, expected
    assert n_blocks == want_blocks, context
    assert list(labels) == list(want), context
    for relation in want:
        assert labels[relation].dtype == want[relation].dtype, context
        assert np.array_equal(labels[relation], want[relation]), f"{context}: {relation}"


def assert_blocks_follow_labels(database: Database, dag: CausalDAG | None, context: str) -> None:
    labels, n_blocks = block_labels(database, dag)
    decomposition = decompose_into_blocks(database, dag)  # runs validate_cover itself
    assert [block.index for block in decomposition] == list(range(n_blocks)), context
    for block in decomposition:
        assert list(block.rows) == sorted(block.rows), context
        for relation, rows in block.rows.items():
            assert rows == sorted(rows) and rows, context
            assert (labels[relation][rows] == block.index).all(), context
    assert sum(row_count(block) for block in decomposition) == database.total_rows, context


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def test_labels_equal_the_union_find_oracle():
    n_blocks_seen = set()
    for seed in range(N_CASES):
        database, dag = random_case(seed)
        context = f"seed={seed}"
        expected = oracle_block_labels(database, dag)
        assert_same_labels(block_labels(database, dag), expected, context)
        assert_blocks_follow_labels(database, dag, context)
        n_blocks_seen.add(expected[1] == database.total_rows)
    assert n_blocks_seen == {True, False}  # both merging and non-merging models were drawn


def test_generator_separates_an_implementation_that_merges_childless_parents():
    """Parents sharing a key no child refers to must stay apart: the cases tell."""
    caught = 0
    for seed in range(N_CASES):
        database, dag = random_case(seed)
        wrong = oracle_block_labels(database, dag, mutant=True)
        right = block_labels(database, dag)
        caught += wrong[1] != right[1] or any(
            not np.array_equal(wrong[0][r], right[0][r]) for r in right[0]
        )
    assert caught >= 5, f"only {caught} of {N_CASES} cases expose the wrong merge"


@pytest.mark.parametrize(
    "make, sizes",
    [(make_german_syn, (300, 1500)), (make_amazon_syn, (60, 400)), (make_student_syn, (40, 150))],
    ids=["german", "amazon", "student"],
)
def test_bundled_datasets_equal_the_oracle(make, sizes):
    for size in sizes:
        dataset = make(size, seed=size)
        database = dataset.database
        context = f"{make.__name__}({size})"
        for dag in (dataset.causal_dag, None):
            assert_same_labels(
                block_labels(database, dag), oracle_block_labels(database, dag), context
            )
        assert_blocks_follow_labels(database, dataset.causal_dag, context)


# ---------------------------------------------------------------------------
# The three preserved edge semantics, spelled out
# ---------------------------------------------------------------------------


def _two_relations(parent_keys, child_keys, *, parent_group=None, child_extra=None):
    n_parent, n_child = len(parent_keys), len(child_keys)
    parent = Relation.from_columns(
        "P",
        {
            "id": list(range(n_parent)),
            "k": parent_keys,
            "grp": parent_group or ["a"] * n_parent,
            "x": [0.5] * n_parent,
        },
        key=["id"],
    )
    child = Relation.from_columns(
        "C",
        {"id": list(range(n_child)), "fk": child_keys, "y": [0.5] * n_child, **(child_extra or {})},
        key=["id"],
    )
    return Database([parent, child], [ForeignKey("C", ("fk",), "P", ("k",))])


class TestPreservedSemantics:
    FK_EDGE = CausalDAG(nodes=["P.x", "C.y"], edges=[CausalEdge("P.x", "C.y")])

    @staticmethod
    def grouped_by(within: str) -> CausalDAG:
        edge = CausalEdge("P.x", "P.grp", cross_tuple=True, within=within)
        return CausalDAG(nodes=["P.x", "P.grp"], edges=[edge])

    def test_parents_sharing_a_key_without_a_child_stay_apart(self):
        database = _two_relations([7, 7, 8], [8])
        labels, n_blocks = block_labels(database, self.FK_EDGE)
        # C sorts first: child 0 and its parent (key 8) are block 0, the two 7s stay apart
        assert labels["C"].tolist() == [0] and labels["P"].tolist() == [1, 2, 0]
        assert n_blocks == 3

    def test_parents_sharing_a_key_with_a_child_merge_and_orphans_stay_single(self):
        database = _two_relations([7, 7, 8], [7, 9, 9])
        labels, n_blocks = block_labels(database, self.FK_EDGE)
        assert labels["C"].tolist() == [0, 1, 2]  # the two orphans (9) do not merge
        assert labels["P"].tolist() == [0, 0, 3]
        assert n_blocks == 4

    def test_none_group_value_merges_nothing(self):
        database = _two_relations([1, 2, 3, 4], [1], parent_group=["a", None, "a", None])
        dag = self.grouped_by("grp")
        labels, n_blocks = block_labels(database, dag)
        assert labels["P"].tolist() == [1, 2, 1, 3]
        assert n_blocks == 4

    def test_composite_keys_compare_as_tuples(self):
        parent = Relation.from_columns(
            "P", {"id": [0, 1], "a": [1, 1], "b": [1, 2], "x": [0.1, 0.2]}, key=["id"]
        )
        child = Relation.from_columns(
            "C", {"id": [0, 1], "a": [1, 2], "b": [2, 1], "y": [0.1, 0.2]}, key=["id"]
        )
        database = Database([parent, child], [ForeignKey("C", ("a", "b"), "P", ("a", "b"))])
        labels, n_blocks = block_labels(database, self.FK_EDGE)
        # (1, 2) links child 0 and parent 1; (2, 1) equals no parent key although
        # each component occurs on the other side
        assert labels["C"].tolist() == [0, 1] and labels["P"].tolist() == [2, 0]
        assert n_blocks == 3

    def test_group_looked_up_through_the_fk_takes_the_last_linked_row(self):
        # P has no ``tag``: each parent takes the tag of the last child carrying its key
        database = _two_relations(
            [1, 2, 3], [1, 2, 1, 3], child_extra={"tag": ["u", "u", "v", "v"]}
        )
        dag = self.grouped_by("tag")
        labels, _ = block_labels(database, dag)
        assert labels["P"].tolist() == [4, 5, 4]  # parents 1 (tag v) and 3 (tag v) merge

    def test_model_without_a_linking_rule_reads_no_row(self, monkeypatch):
        database = make_german_syn(50, seed=0).database
        dag = make_german_syn(50, seed=0).causal_dag
        monkeypatch.setattr(
            Relation, "column_view", lambda *a: pytest.fail("a column was read")
        )
        labels, n_blocks = block_labels(database, dag)
        assert n_blocks == 50 and labels["Credit"].tolist() == list(range(50))

    def test_missing_fk_for_a_crossing_edge_is_an_error(self):
        parent = Relation.from_columns("P", {"id": [0], "x": [0.1]}, key=["id"])
        child = Relation.from_columns("C", {"id": [0], "y": [0.1]}, key=["id"])
        with pytest.raises(CausalModelError, match="no foreign key links them"):
            block_labels(Database([parent, child]), self.FK_EDGE)


class TestValidateCover:
    def test_duplicate_and_missing_tuples_are_reported(self):
        database = _two_relations([1, 2], [1])
        twice = BlockDecomposition([Block(0, {"P": [0, 1], "C": [0]}), Block(1, {"P": [1]})])
        with pytest.raises(CausalModelError, match=r"\('P', 1\) appears in blocks 0 and 1"):
            twice.validate_cover(database)
        missing = BlockDecomposition([Block(0, {"P": [0], "C": [0]})])
        with pytest.raises(CausalModelError, match=r"\('P', 1\) is not covered"):
            missing.validate_cover(database)
        BlockDecomposition([Block(0, {"P": [0, 1]}), Block(1, {"C": [0]})]).validate_cover(database)
