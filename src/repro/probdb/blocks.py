"""Block-independent decomposition of a database under a causal model.

Two tuples are *independent* when no path in the ground causal graph connects
any of their attributes (Section 3.3).  A block-independent decomposition
partitions the database so tuples in different blocks are pairwise independent,
letting HypeR evaluate what-if queries per block and combine the partial
results (Proposition 1).

The decomposition never materialises the ground graph, nor one edge per tuple
pair.  Every rule by which a grounded edge can connect two tuples is "the
tuples share a key value", so each rule becomes one *virtual node per key
value* (the condensed representation of "Extracting and Analyzing Hidden
Graphs from Relational Databases") and blocks are the connected components of
the bipartite tuple <-> key-value graph:

* a cross-relation attribute edge links the parent and child tuples that carry
  the same foreign-key value — only values carried by **both** a parent and a
  child row link anything (orphan children stay singletons; parents sharing a
  key no child refers to stay apart), and composite keys compare as tuples;
* a cross-tuple edge links all tuples of the involved relations that share the
  grouping attribute value (``within``, looked up through the foreign key when
  the attribute lives in the linked relation), or *all* their tuples when no
  grouping is declared; a group value of ``None`` links nothing;
* within-tuple edges never link distinct tuples.

Tuples get integer ids (relations in sorted-name order, rows in order), each
distinct rule costs one factorisation of its key columns, components come from
min-label propagation over the tuple <-> key-value edges (at most one sweep per
chained rule, plus one to detect the fixpoint) and block indices from one
``np.unique``: linear in the database size, as the paper claims.  A causal
model without a linking rule returns ``arange`` without reading a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Sequence

import numpy as np

from ..causal.dag import CausalDAG
from ..exceptions import CausalModelError
from ..relational.database import Database
from ..relational.relation import Relation

__all__ = [
    "Block",
    "BlockDecomposition",
    "assign_blocks_to_shards",
    "block_labels",
    "decompose_into_blocks",
    "label_columns",
    "shard_row_masks",
]


@dataclass
class Block:
    """One block of the decomposition: row positions per relation."""

    index: int
    rows: dict[str, list[int]] = field(default_factory=dict)

    def __repr__(self) -> str:
        sizes = {rel: len(rows) for rel, rows in self.rows.items()}
        return f"Block({self.index}, {sizes})"


@dataclass
class BlockDecomposition:
    """The full decomposition: a list of blocks covering every tuple exactly once."""

    blocks: list[Block]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def validate_cover(self, database: Database) -> None:
        """Check the partition property: every tuple appears in exactly one block."""
        for relation in database.relation_names:
            owned = [block.rows.get(relation, ()) for block in self.blocks]
            rows = np.fromiter(chain.from_iterable(owned), dtype=np.int64)
            counts = np.bincount(rows, minlength=len(database[relation]))
            if (counts > 1).any():
                row = int(np.argmax(counts > 1))
                holders = [b.index for b, held in zip(self.blocks, owned) for r in held if r == row]
                raise CausalModelError(
                    f"tuple {(relation, row)} appears in blocks {holders[0]} and {holders[1]}"
                )
            if not counts.all():
                raise CausalModelError(
                    f"tuple ({relation!r}, {int(np.argmin(counts))}) is not covered"
                )


def _factorise(parts: Sequence[np.ndarray], *, none_matches: bool) -> np.ndarray:
    """Codes over the concatenation of ``parts``: equal code <=> equal value, ``-1`` = no value.

    Float columns take one ``np.unique`` (NaN equals nothing, as in Python);
    object columns need one dict pass to keep Python equality (``2 == 2.0``,
    and ``None == None`` between foreign-key values when ``none_matches``).
    """
    if all(part.dtype.kind == "f" for part in parts):
        data = np.concatenate(parts)
        codes = np.full(len(data), -1, dtype=np.int64)
        valid = ~np.isnan(data)
        codes[valid] = np.unique(data[valid], return_inverse=True)[1]
        return codes
    seen: dict[Any, int] = {}
    return np.fromiter(
        (
            -1 if value is None and not none_matches else seen.setdefault(value, len(seen))
            for part in parts
            for value in part.tolist()
        ),
        dtype=np.int64,
        count=sum(len(part) for part in parts),
    )


def _key_codes(sides: Sequence[tuple[Relation, Sequence[str]]]) -> list[np.ndarray]:
    """Shared codes of a (composite) key over several ``(relation, attributes)`` sides."""
    combined: np.ndarray | None = None
    for attributes in zip(*(attributes for _rel, attributes in sides)):
        codes = _factorise(
            [rel.column_view(a) for (rel, _), a in zip(sides, attributes)], none_matches=True
        )
        if combined is not None:
            # composite keys compare as tuples: re-compress the pair of codes
            missing = (combined < 0) | (codes < 0)
            pairs = combined * (codes.max(initial=0) + 1) + codes
            codes = np.unique(pairs, return_inverse=True)[1]
            codes[missing] = -1
        combined = codes
    assert combined is not None
    return np.split(combined, np.cumsum([len(rel) for rel, _ in sides])[:-1])


def _group_values(database: Database, relation: str, within: str | None) -> np.ndarray:
    """Grouping value per row of ``relation`` (resolving ``within`` through FKs)."""
    rel = database[relation]
    if within is None:
        return np.zeros(len(rel))
    if within in rel.schema:
        return rel.column_view(within)
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
    own, theirs = _key_codes([(rel, own_attrs), (other, other_attrs)])
    # a row takes the value of the *last* linked row carrying its key
    last = np.full(max(own.max(initial=-1), theirs.max(initial=-1)) + 1, -1, dtype=np.int64)
    carried = np.flatnonzero(theirs >= 0)
    np.maximum.at(last, theirs[carried], carried)
    found = np.flatnonzero(own >= 0)
    found = found[last[own[found]] >= 0]
    values = other.column_view(attribute)
    out = np.full(len(rel), np.nan if values.dtype.kind == "f" else None, dtype=values.dtype)
    out[found] = values[last[own[found]]]
    return out


def _linking_rules(
    database: Database, dag: CausalDAG, offsets: dict[str, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One ``(tuple ids, key codes)`` pair per distinct rule that can link tuples."""

    def ids(relation: str) -> np.ndarray:
        return offsets[relation] + np.arange(len(database[relation]))

    owner_of = {node: database.resolve_attribute(node)[0] for node in dag.nodes}
    rules: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for edge in dag.edges:
        relations = tuple(sorted({owner_of[edge.source], owner_of[edge.target]}))
        if edge.cross_tuple:
            if (relations, edge.within) in rules:
                continue
            codes = _factorise(
                [_group_values(database, relation, edge.within) for relation in relations],
                none_matches=False,
            )
            tuples = np.concatenate([ids(relation) for relation in relations])
            rules[relations, edge.within] = tuples[codes >= 0], codes[codes >= 0]
        elif len(relations) == 2 and relations not in rules:
            links = database.schema.links_between(*relations)
            if not links:
                raise CausalModelError(
                    f"a causal edge crosses relations {owner_of[edge.source]!r} and "
                    f"{owner_of[edge.target]!r} but no foreign key links them"
                )
            fk = links[0]
            parent, child = _key_codes(
                [(database[fk.parent], fk.parent_attributes),
                 (database[fk.child], fk.child_attributes)]
            )
            # a key value links tuples only when both a parent and a child row carry it
            codes = np.concatenate([parent, child])
            linked = np.isin(codes, np.intersect1d(parent[parent >= 0], child[child >= 0]))
            tuples = np.concatenate([ids(fk.parent), ids(fk.child)])
            rules[relations] = tuples[linked], codes[linked]
        # within-tuple edges never link tuples
    return list(rules.values())


def _component_roots(n: int, rules: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Smallest tuple id of every tuple's component in the tuple <-> key-value graph."""
    root = np.arange(n)
    while True:
        previous = root.copy()
        for tuples, codes in rules:  # each tuple carries at most one key per rule
            smallest = np.full(codes.max(initial=-1) + 1, n)
            np.minimum.at(smallest, codes, root[tuples])
            root[tuples] = np.minimum(root[tuples], smallest[codes])
        while True:  # pointer jumping: a root is itself a tuple of the component
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        if np.array_equal(root, previous):
            return root


def block_labels(
    database: Database, dag: CausalDAG | None
) -> tuple[dict[str, np.ndarray], int]:
    """Block index per row of every relation, without materialising blocks.

    Returns ``(labels, n_blocks)`` where ``labels[relation][row]`` equals the
    ``Block.index`` that :func:`decompose_into_blocks` assigns the tuple:
    blocks are numbered by their smallest ``(relation, row)`` member.  With no
    causal graph (``dag is None``) every tuple forms its own block — the
    tuple-independence default the paper assumes absent background knowledge.
    This is the entry point of the query engines, which only need the per-row
    assignment (the partition property holds by construction); the arrays are
    views of one labelling, to be read, not written.
    """
    offsets: dict[str, int] = {}
    n = 0
    for relation in sorted(database.relation_names):
        offsets[relation] = n
        n += len(database[relation])
    rules = _linking_rules(database, dag, offsets) if dag is not None else []
    if any(len(tuples) for tuples, _codes in rules):
        roots, index = np.unique(_component_roots(n, rules), return_inverse=True)
        n_blocks = len(roots)
    else:
        index, n_blocks = np.arange(n), n
    labels = {
        relation: index[offsets[relation] : offsets[relation] + len(database[relation])]
        for relation in database.relation_names
    }
    return labels, n_blocks


def label_columns(database: Database, dag: CausalDAG | None) -> tuple[tuple[str, str], ...]:
    """The columns :func:`block_labels` can read besides the relations' lengths: the
    keys, both sides of every foreign key, and each cross-tuple edge's ``within``."""
    columns = {(relation.name, key) for relation in database for key in relation.schema.key}
    for fk in database.foreign_keys:
        columns.update((fk.child, a) for a in fk.child_attributes)
        columns.update((fk.parent, a) for a in fk.parent_attributes)
    for within in {e.within for e in dag.edges if e.cross_tuple and e.within} if dag else ():
        columns.update((r.name, within) for r in database if within in r.schema)
        if "." in within:  # "Relation.attribute"
            columns.add(tuple(within.split(".", 1)))
    return tuple(sorted(columns))


def decompose_into_blocks(database: Database, dag: CausalDAG | None) -> BlockDecomposition:
    """Materialise the decomposition of :func:`block_labels` as :class:`Block` objects."""
    labels, n_blocks = block_labels(database, dag)
    blocks = [Block(i, {}) for i in range(n_blocks)]
    for relation in sorted(labels):
        order = np.argsort(labels[relation], kind="stable")
        present, starts = np.unique(labels[relation][order], return_index=True)
        rows, bounds = order.tolist(), [*starts.tolist(), len(order)]
        for label, start, stop in zip(present.tolist(), bounds, bounds[1:]):
            blocks[label].rows[relation] = rows[start:stop]
    decomposition = BlockDecomposition(blocks)
    decomposition.validate_cover(database)
    return decomposition


def assign_blocks_to_shards(block_sizes: Sequence[int] | np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic, size-balanced assignment of blocks to shards.

    This is the *stable shard-assignment API* the shard subsystem
    (:mod:`repro.shard`) builds on: given the tuple count of every block of a
    decomposition, return ``shard_of_block`` such that
    ``shard_of_block[block_index]`` names the shard owning that block.  Because
    blocks are independent (Proposition 1), any block-to-shard mapping yields
    an exact parallel evaluation; this one uses longest-processing-time greedy
    packing — blocks sorted by (size desc, index asc), each assigned to the
    least-loaded shard so far, ties broken by the lowest shard index — which is
    deterministic across runs, processes and platforms.

    When ``n_shards`` exceeds the number of blocks, trailing shards simply own
    no blocks (the single-block edge case degenerates to one working shard).
    """
    if n_shards < 1:
        raise CausalModelError(f"n_shards must be at least 1, got {n_shards}")
    sizes = np.asarray(block_sizes, dtype=np.int64)
    shard_of_block = np.zeros(len(sizes), dtype=np.int64)
    if n_shards == 1 or len(sizes) == 0:
        return shard_of_block
    # A run of m equal-size blocks is a k-way merge: shard j's successive
    # turns cost loads[j] + t * size, and greedy takes the m smallest
    # (cost, shard) pairs in order — one stable sort per run, not per block.
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    loads = np.zeros(n_shards, dtype=np.int64)
    for start, end in zip(starts, np.r_[starts[1:], len(ranked)]):
        m, size = end - start, ranked[start]
        costs = loads[:, None] + np.arange(m) * size  # row j: shard j's turns
        # stable over the shard-major layout: equal costs go to the lower shard
        shards = np.argsort(costs, axis=None, kind="stable")[:m] // m
        shard_of_block[order[start:end]] = shards
        loads += np.bincount(shards, minlength=n_shards) * size
    return shard_of_block


def shard_row_masks(
    labels: dict[str, np.ndarray], shard_of_block: np.ndarray, n_shards: int
) -> list[dict[str, np.ndarray]]:
    """Per-shard boolean row masks over every relation of a labelled database.

    ``labels`` is the per-relation block assignment from :func:`block_labels`;
    the returned list has one ``{relation: mask}`` dict per shard, and the
    masks of any relation partition its rows exactly (each row belongs to the
    shard owning its block).
    """
    out: list[dict[str, np.ndarray]] = []
    shard_of_row = {
        relation: shard_of_block[relation_labels]
        for relation, relation_labels in labels.items()
    }
    for shard in range(n_shards):
        out.append(
            {relation: rows == shard for relation, rows in shard_of_row.items()}
        )
    return out
