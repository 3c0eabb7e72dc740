"""Attribute-level causal DAGs.

A :class:`CausalDAG` captures the background knowledge HypeR needs: which
attributes causally influence which (Figure 2 of the paper).  Nodes are
attribute names (optionally qualified ``Relation.Attribute``); edges are
directed and may be flagged as *cross-tuple*: the attribute of one tuple
influences the attribute of *other* tuples (e.g. the price of one laptop
influences the rating of competing laptops of the same category).  Cross-tuple
edges may declare a grouping attribute (``within``) limiting the influence to
tuples sharing that attribute's value.

The class keeps parent and child adjacency in insertion-ordered dicts and
adds the causal-inference vocabulary used throughout the engine:
parents/children, ancestors/descendants (stack walks), a lexicographic
topological order, and acyclicity validation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

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
    """Directed acyclic graph over attribute names; nodes and edges keep the
    order they were added in."""

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[CausalEdge | tuple[str, str]] = (),
    ) -> None:
        #: node -> {child: the edge to it}; node -> {parent: None}
        self._children: dict[str, dict[str, CausalEdge]] = {}
        self._parents: dict[str, dict[str, None]] = {}
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
        if name not in self._children:
            self._children[name] = {}
            self._parents[name] = {}
        self._memo.clear()

    def add_edge(self, edge: CausalEdge | tuple[str, str], **kwargs) -> None:
        """Add an edge, refusing one that would close a cycle."""
        if not isinstance(edge, CausalEdge):
            edge = CausalEdge(edge[0], edge[1], **kwargs)
        source, target = edge.source, edge.target
        if target in self._children and source in _walk(target, self._children):
            raise CausalModelError(
                f"adding edge {source!r} -> {target!r} would create a cycle"
            )
        self.add_node(source)
        self.add_node(target)
        self._children[source][target] = edge
        self._parents[target][source] = None
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
        return CausalDAG(self.nodes, self.edges)

    # -- basic structure ------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._children)

    @property
    def edges(self) -> list[CausalEdge]:
        return [edge for children in self._children.values() for edge in children.values()]

    def __contains__(self, node: str) -> bool:
        return node in self._children

    def __len__(self) -> int:
        return len(self._children)

    def has_edge(self, source: str, target: str) -> bool:
        return target in self._children.get(source, ())

    def edge(self, source: str, target: str) -> CausalEdge:
        try:
            return self._children[source][target]
        except KeyError as exc:
            raise CausalModelError(f"no edge {source!r} -> {target!r}") from exc

    def _require(self, node: str) -> None:
        if node not in self._children:
            raise CausalModelError(
                f"attribute {node!r} is not a node of the causal DAG; nodes: {self.nodes}"
            )

    def parents(self, node: str) -> list[str]:
        self._require(node)
        return sorted(self._parents[node])

    def children(self, node: str) -> list[str]:
        self._require(node)
        return sorted(self._children[node])

    def ancestors(self, node: str) -> set[str]:
        self._require(node)
        return _walk(node, self._parents)

    def descendants(self, node: str) -> set[str]:
        self._require(node)
        return _walk(node, self._children)

    def roots(self) -> list[str]:
        return sorted(node for node, parents in self._parents.items() if not parents)

    def topological_order(self) -> list[str]:
        """Every parent before its children, the smallest ready name first."""
        waiting = {node: len(parents) for node, parents in self._parents.items()}
        ready = [node for node, count in waiting.items() if count == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in self._children[node]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(ready, child)
        return order

    def __repr__(self) -> str:  # pragma: no cover
        return f"CausalDAG({len(self)} nodes, {len(self.edges)} edges)"


def _walk(start: str, step: Mapping[str, Iterable[str]]) -> set[str]:
    """Every node reachable from ``start`` along ``step`` (``start`` excluded)."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for node in step[stack.pop()]:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen
