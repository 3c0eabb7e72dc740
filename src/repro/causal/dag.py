"""Attribute-level causal DAGs.

A :class:`CausalDAG` captures the background knowledge HypeR needs: which
attributes causally influence which (Figure 2 of the paper).  Nodes are
attribute names (optionally qualified ``Relation.Attribute``); edges are
directed and may be flagged as *cross-tuple*: the attribute of one tuple
influences the attribute of *other* tuples (e.g. the price of one laptop
influences the rating of competing laptops of the same category).  Cross-tuple
edges may declare a grouping attribute (``within``) limiting the influence to
tuples sharing that attribute's value.

The class wraps a :mod:`networkx` DiGraph and adds the causal-inference
vocabulary used throughout the engine: parents/children, ancestors/descendants,
topological order, and acyclicity validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

import networkx as nx

from ..exceptions import CausalModelError

__all__ = ["CausalEdge", "CausalDAG"]

_MEMO_ENTRIES = 256


@dataclass(frozen=True)
class CausalEdge:
    """A directed causal edge ``source -> target``.

    ``cross_tuple`` marks edges whose influence crosses tuple boundaries; for
    those, ``within`` optionally names a grouping attribute so the influence is
    restricted to tuples that share the same value of that attribute (the
    paper's Example 7 groups laptops by Category).
    """

    source: str
    target: str
    cross_tuple: bool = False
    within: str | None = None

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise CausalModelError(f"self-loop edge on {self.source!r} is not allowed")
        if self.within is not None and not self.cross_tuple:
            raise CausalModelError("'within' grouping only applies to cross-tuple edges")


class CausalDAG:
    """Directed acyclic graph over attribute names."""

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[CausalEdge | tuple[str, str]] = (),
    ) -> None:
        self._graph = nx.DiGraph()
        self._edge_meta: dict[tuple[str, str], CausalEdge] = {}
        self._memo: dict[Hashable, Any] = {}
        for node in nodes:
            self.add_node(node)
        for edge in edges:
            if isinstance(edge, CausalEdge):
                self.add_edge(edge)
            else:
                self.add_edge(CausalEdge(edge[0], edge[1]))

    # -- construction -------------------------------------------------------------

    def add_node(self, name: str) -> None:
        if not name:
            raise CausalModelError("attribute node names must be non-empty")
        self._graph.add_node(name)
        self._memo.clear()

    def add_edge(self, edge: CausalEdge | tuple[str, str], **kwargs) -> None:
        """Add an edge, validating that the graph remains acyclic."""
        if not isinstance(edge, CausalEdge):
            edge = CausalEdge(edge[0], edge[1], **kwargs)
        self._graph.add_edge(edge.source, edge.target)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(edge.source, edge.target)
            raise CausalModelError(
                f"adding edge {edge.source!r} -> {edge.target!r} would create a cycle"
            )
        self._edge_meta[(edge.source, edge.target)] = edge
        self._memo.clear()

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """A fact derived from this graph alone, computed once per ``key``.

        Backdoor sets and view projections depend on the DAG, not on data, yet
        every cold query and every refit after a commit asks for them again.
        ``add_node``/``add_edge`` drop everything, so a mutated DAG is never
        answered from its past; values are shared between callers and must be
        treated as read-only.  A racing miss builds the same value twice.
        Keys can carry names chosen by a query (a ``Use`` clause's aliases),
        so the memo starts over rather than outgrow ``_MEMO_ENTRIES``.
        """
        try:
            return self._memo[key]
        except KeyError:
            if len(self._memo) >= _MEMO_ENTRIES:
                self._memo.clear()
            value = self._memo[key] = build()
            return value

    def copy(self) -> "CausalDAG":
        clone = CausalDAG(self.nodes)
        for edge in self.edges:
            clone.add_edge(edge)
        return clone

    # -- basic structure ------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._graph.nodes)

    @property
    def edges(self) -> list[CausalEdge]:
        return [self._edge_meta[e] for e in self._graph.edges]

    def __contains__(self, node: str) -> bool:
        return node in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def has_edge(self, source: str, target: str) -> bool:
        return self._graph.has_edge(source, target)

    def edge(self, source: str, target: str) -> CausalEdge:
        try:
            return self._edge_meta[(source, target)]
        except KeyError as exc:
            raise CausalModelError(f"no edge {source!r} -> {target!r}") from exc

    def _require(self, node: str) -> None:
        if node not in self._graph:
            raise CausalModelError(
                f"attribute {node!r} is not a node of the causal DAG; nodes: {self.nodes}"
            )

    def parents(self, node: str) -> list[str]:
        self._require(node)
        return sorted(self._graph.predecessors(node))

    def children(self, node: str) -> list[str]:
        self._require(node)
        return sorted(self._graph.successors(node))

    def ancestors(self, node: str) -> set[str]:
        self._require(node)
        return set(nx.ancestors(self._graph, node))

    def descendants(self, node: str) -> set[str]:
        self._require(node)
        return set(nx.descendants(self._graph, node))

    def roots(self) -> list[str]:
        return sorted(n for n in self._graph.nodes if self._graph.in_degree(n) == 0)

    def topological_order(self) -> list[str]:
        """Nodes ordered so every parent precedes its children (deterministic)."""
        return list(nx.lexicographical_topological_sort(self._graph))

    # -- paths (used by the backdoor machinery) ------------------------------------------

    def undirected_paths(self, source: str, target: str, cutoff: int | None = None) -> Iterator[list[str]]:
        """All simple paths between ``source`` and ``target`` ignoring direction."""
        self._require(source)
        self._require(target)
        undirected = self._graph.to_undirected(as_view=True)
        return nx.all_simple_paths(undirected, source, target, cutoff=cutoff)

    def is_collider(self, path: list[str], index: int) -> bool:
        """Whether ``path[index]`` is a collider (``a -> b <- c``) along ``path``."""
        if index <= 0 or index >= len(path) - 1:
            return False
        prev_node, node, next_node = path[index - 1], path[index], path[index + 1]
        return self.has_edge(prev_node, node) and self.has_edge(next_node, node)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CausalDAG({len(self)} nodes, {len(self.edges)} edges)"
