"""Grounding an attribute-level causal DAG over a database instance.

The PRCM of the paper has one endogenous variable per attribute *per tuple*
(``A[t]``).  The ground causal graph materialises those variables and the
edges induced by the attribute-level DAG:

* within-tuple edges — an attribute edge ``A -> B`` where both attributes live
  in the same relation grounds to ``A[t] -> B[t]`` for every tuple ``t``;
* cross-relation edges — an edge ``R.A -> R'.B`` grounds along the foreign-key
  links between ``R`` and ``R'``;
* cross-tuple edges — edges flagged ``cross_tuple`` ground between *different*
  tuples, optionally restricted to tuples sharing the value of a grouping
  attribute (``within``), e.g. laptops of the same Category.

Explicit grounding is quadratic in the worst case.  The engine never builds
this graph: the block decomposition in :mod:`repro.probdb.blocks` derives the
same connectivity from one key-value node per linking rule (Proposition 1), and
this module is the explicit-grounding oracle its tests compare against.  The
graph is a node set and an edge set; connectivity is a union-find over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.causal.dag import CausalDAG, CausalEdge
from repro.exceptions import CausalModelError
from repro.relational.database import Database

__all__ = ["GroundVariable", "GroundCausalGraph"]


@dataclass(frozen=True, order=True)
class GroundVariable:
    """A ground endogenous variable ``A[t]``: (relation, tuple key, attribute)."""

    relation: str
    key: tuple[Hashable, ...]
    attribute: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = self.key[0] if len(self.key) == 1 else self.key
        return f"{self.attribute}[{self.relation}:{key}]"


class GroundCausalGraph:
    """Explicitly grounded causal graph over the tuples of a database."""

    def __init__(self, database: Database, dag: CausalDAG, *, max_nodes: int = 200_000) -> None:
        self.database = database
        self.dag = dag
        self._nodes: dict[GroundVariable, None] = {}
        self._edges: dict[tuple[GroundVariable, GroundVariable], None] = {}
        self._attribute_owner: dict[str, str] = {}
        self._resolve_attribute_owners()
        n_nodes = sum(
            len(self.database[rel]) * len(self._relation_attributes(rel))
            for rel in self._relations_in_dag()
        )
        if n_nodes > max_nodes:
            raise CausalModelError(
                f"explicit grounding would create {n_nodes} nodes (> {max_nodes}); "
                "use the block decomposition instead"
            )
        self._add_nodes()
        self._add_edges()

    # -- attribute resolution -------------------------------------------------------

    def _resolve_attribute_owners(self) -> None:
        for node in self.dag.nodes:
            relation, attribute = self.database.resolve_attribute(node)
            self._attribute_owner[node] = relation

    def _relations_in_dag(self) -> set[str]:
        return set(self._attribute_owner.values())

    def _relation_attributes(self, relation: str) -> list[str]:
        return [
            node
            for node, owner in self._attribute_owner.items()
            if owner == relation
        ]

    def owner_of(self, dag_node: str) -> tuple[str, str]:
        """Return ``(relation, attribute)`` for a DAG node name."""
        relation = self._attribute_owner[dag_node]
        _, attribute = self.database.resolve_attribute(dag_node)
        return relation, attribute

    # -- node / edge construction -----------------------------------------------------

    def _add_edge(self, source: GroundVariable, target: GroundVariable) -> None:
        self._nodes.setdefault(source)
        self._nodes.setdefault(target)
        self._edges.setdefault((source, target))

    def _add_nodes(self) -> None:
        for dag_node in self.dag.nodes:
            relation, attribute = self.owner_of(dag_node)
            rel = self.database[relation]
            for i in range(len(rel)):
                self._nodes.setdefault(GroundVariable(relation, rel.key_of(i), attribute))

    def _add_edges(self) -> None:
        for edge in self.dag.edges:
            if edge.cross_tuple:
                self._add_cross_tuple_edges(edge)
            else:
                self._add_within_edges(edge)

    def _add_within_edges(self, edge: CausalEdge) -> None:
        src_rel, src_attr = self.owner_of(edge.source)
        dst_rel, dst_attr = self.owner_of(edge.target)
        if src_rel == dst_rel:
            rel = self.database[src_rel]
            for i in range(len(rel)):
                key = rel.key_of(i)
                self._add_edge(
                    GroundVariable(src_rel, key, src_attr),
                    GroundVariable(dst_rel, key, dst_attr),
                )
            return
        # Cross-relation edge: ground along the foreign-key link.
        pairs = self._linked_tuple_pairs(src_rel, dst_rel)
        for src_key, dst_key in pairs:
            self._add_edge(
                GroundVariable(src_rel, src_key, src_attr),
                GroundVariable(dst_rel, dst_key, dst_attr),
            )

    def _linked_tuple_pairs(
        self, relation_a: str, relation_b: str
    ) -> Iterable[tuple[tuple[Any, ...], tuple[Any, ...]]]:
        links = self.database.schema.links_between(relation_a, relation_b)
        if not links:
            raise CausalModelError(
                f"cross-relation causal edge between {relation_a!r} and {relation_b!r} "
                "requires a foreign key linking them"
            )
        fk = links[0]
        parent = self.database[fk.parent]
        child = self.database[fk.child]
        parent_index: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for i in range(len(parent)):
            link_value = tuple(parent.column_view(a)[i] for a in fk.parent_attributes)
            parent_index.setdefault(link_value, []).append(parent.key_of(i))
        for j in range(len(child)):
            link_value = tuple(child.column_view(a)[j] for a in fk.child_attributes)
            for parent_key in parent_index.get(link_value, []):
                if relation_a == fk.parent:
                    yield parent_key, child.key_of(j)
                else:
                    yield child.key_of(j), parent_key

    def _add_cross_tuple_edges(self, edge: CausalEdge) -> None:
        src_rel, src_attr = self.owner_of(edge.source)
        dst_rel, dst_attr = self.owner_of(edge.target)
        src = self.database[src_rel]
        dst = self.database[dst_rel]
        group_of_src = self._group_values(src_rel, edge.within)
        group_of_dst = self._group_values(dst_rel, edge.within)
        for i in range(len(src)):
            for j in range(len(dst)):
                if src_rel == dst_rel and src.key_of(i) == dst.key_of(j):
                    continue  # cross-tuple edges never point back into the same tuple
                if group_of_src[i] != group_of_dst[j]:
                    continue
                self._add_edge(
                    GroundVariable(src_rel, src.key_of(i), src_attr),
                    GroundVariable(dst_rel, dst.key_of(j), dst_attr),
                )

    def _group_values(self, relation: str, within: str | None) -> list[Any]:
        rel = self.database[relation]
        if within is None:
            return [0] * len(rel)  # a single global group
        if within in rel.schema:
            return list(rel.column_view(within))
        # The grouping attribute may live in a linked relation (e.g. reviews grouped
        # by their product's Category); resolve it through the foreign key.
        owner, attribute = self.database.resolve_attribute(within)
        links = self.database.schema.links_between(relation, owner)
        if not links:
            raise CausalModelError(
                f"grouping attribute {within!r} is not in {relation!r} and no foreign key "
                f"links {relation!r} to {owner!r}"
            )
        fk = links[0]
        other = self.database[owner]
        other_index: dict[tuple[Any, ...], Any] = {}
        if fk.parent == owner:
            for i in range(len(other)):
                link_value = tuple(other.column_view(a)[i] for a in fk.parent_attributes)
                other_index[link_value] = other.column_view(attribute)[i]
            return [
                other_index.get(
                    tuple(rel.column_view(a)[j] for a in fk.child_attributes)
                )
                for j in range(len(rel))
            ]
        for i in range(len(other)):
            link_value = tuple(other.column_view(a)[i] for a in fk.child_attributes)
            other_index[link_value] = other.column_view(attribute)[i]
        return [
            other_index.get(
                tuple(rel.column_view(a)[j] for a in fk.parent_attributes)
            )
            for j in range(len(rel))
        ]

    # -- queries -------------------------------------------------------------------

    @property
    def nodes(self) -> list[GroundVariable]:
        return list(self._nodes)

    @property
    def edges(self) -> list[tuple[GroundVariable, GroundVariable]]:
        return list(self._edges)

    def has_edge(self, source: GroundVariable, target: GroundVariable) -> bool:
        return (source, target) in self._edges

    def tuples_are_independent(
        self,
        relation_a: str,
        key_a: tuple[Any, ...],
        relation_b: str,
        key_b: tuple[Any, ...],
    ) -> bool:
        """Whether no ground path (in either direction) connects the two tuples."""
        root = _components(self._nodes, self._edges)
        roots_a = {root[n] for n in self._nodes if (n.relation, n.key) == (relation_a, key_a)}
        return not any(
            root[n] in roots_a for n in self._nodes if (n.relation, n.key) == (relation_b, key_b)
        )

    def tuple_components(self) -> list[set[tuple[str, tuple[Any, ...]]]]:
        """Connected components projected down to (relation, key) tuple identities:
        two tuples share a component when a ground path joins any of their
        variables."""
        root = _components(
            {(n.relation, n.key): None for n in self._nodes},
            [((u.relation, u.key), (v.relation, v.key)) for u, v in self._edges],
        )
        components: dict[Hashable, set[tuple[str, tuple[Any, ...]]]] = {}
        for tuple_id, tuple_root in root.items():
            components.setdefault(tuple_root, set()).add(tuple_id)
        return list(components.values())


def _components(items: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]) -> dict:
    """``{item: its component's representative}`` of the undirected graph on
    ``items`` whose edges are ``pairs`` (union-find with path halving)."""
    parent = {item: item for item in items}

    def find(item: Hashable) -> Hashable:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {item: find(item) for item in parent}
