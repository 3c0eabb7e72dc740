"""Each debugging ``repr`` names what it stands for, and stays short."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CausalDAG, Database, Relation
from repro.core.results import LazyBlockContributions
from repro.obs.trace import Span
from repro.probdb.blocks import Block
from repro.relational import CategoricalDomain, IntegerDomain, NumericDomain
from repro.service.versions import Snapshot

RELATION = Relation.from_columns("R", {"K": [1, 2], "X": [0.5, 1.5]}, key=("K",))


def pending_contributions() -> LazyBlockContributions:
    return LazyBlockContributions(
        lambda: (np.array([0]), np.array([2.0]), np.array([1]), np.array([1]))
    )


def settled_contributions() -> LazyBlockContributions:
    settled = pending_contributions()
    len(settled)
    return settled


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: Block(0, {"R": [0, 1]}), "Block(0, {'R': 2})"),
        (lambda: CausalDAG(nodes=["A", "B"], edges=[("A", "B")]), "CausalDAG(2 nodes, 1 edges)"),
        (lambda: RELATION, "Relation('R', 2 rows, 2 cols)"),
        (lambda: RELATION.schema, "RelationSchema(R: K* (imm), X)"),
        (lambda: Database([RELATION]), "Database(R[2])"),
        (lambda: Database([RELATION]).schema, "DatabaseSchema(R)"),
        (lambda: Span("query"), "Span('query', 0 children)"),
        (lambda: Snapshot(3, None), "Snapshot(gen=3, refs=0, latest)"),
        (pending_contributions, "LazyBlockContributions(pending)"),
        (settled_contributions, "LazyBlockContributions(1 blocks)"),
    ],
)
def test_a_repr_names_its_object(make, text):
    assert repr(make()) == text


def test_a_domain_prints_its_range_or_categories():
    assert str(NumericDomain(0.0, 1.0)) == "Numeric[0.0, 1.0]"
    assert str(IntegerDomain(1, 5)) == "Integer[1, 5]"
    assert str(CategoricalDomain(["a", "b"])).startswith("Categorical[")
