"""The path oracle: d-separation and backdoor sets by enumerating simple paths.

This is the textbook definition, run literally: a path is blocked by ``Z``
when it has a non-collider in ``Z`` or a collider with neither itself nor a
descendant in ``Z``, and two nodes are d-separated when every undirected
simple path between them is blocked.  Enumerating the paths is exponential in
the DAG's density, so :mod:`repro.causal` decides the same questions with one
reachability pass; its tests compare that pass against this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.causal import CausalDAG, eligible_adjustment_attributes
from repro.exceptions import IdentificationError

__all__ = [
    "all_backdoor_paths",
    "d_separated",
    "is_collider",
    "minimal_backdoor_set",
    "path_is_blocked",
    "undirected_paths",
]


def undirected_paths(dag: CausalDAG, source: str, target: str) -> Iterator[list[str]]:
    """All simple paths between ``source`` and ``target`` ignoring direction
    (``[source]`` alone when the two are one node)."""
    for node in (source, target):
        dag.parents(node)  # an unknown node raises CausalModelError
    neighbours = {node: dag.parents(node) + dag.children(node) for node in dag.nodes}
    path = [source]
    on_path = {source}

    def extend() -> Iterator[list[str]]:
        if path[-1] == target:
            yield list(path)
            return
        for node in neighbours[path[-1]]:
            if node not in on_path:
                path.append(node)
                on_path.add(node)
                yield from extend()
                on_path.discard(path.pop())

    return extend()


def is_collider(dag: CausalDAG, path: Sequence[str], index: int) -> bool:
    """Whether ``path[index]`` is a collider (``a -> b <- c``) along ``path``."""
    if index <= 0 or index >= len(path) - 1:
        return False
    prev_node, node, next_node = path[index - 1], path[index], path[index + 1]
    return dag.has_edge(prev_node, node) and dag.has_edge(next_node, node)


def path_is_blocked(dag: CausalDAG, path: Sequence[str], conditioning: Iterable[str]) -> bool:
    """Whether ``path`` (a node sequence) is blocked given ``conditioning``."""
    z = set(conditioning)
    for i in range(1, len(path) - 1):
        node = path[i]
        if is_collider(dag, path, i):
            if not (dag.descendants(node) | {node}) & z:
                return True
        elif node in z:
            return True
    return False  # a path of one or two nodes cannot be blocked


def d_separated(dag: CausalDAG, x: str, y: str, conditioning: Iterable[str] = ()) -> bool:
    """Whether every undirected path between ``x`` and ``y`` is blocked."""
    z = set(conditioning)
    return all(path_is_blocked(dag, path, z) for path in undirected_paths(dag, x, y))


def all_backdoor_paths(dag: CausalDAG, treatment: str, outcome: str) -> list[list[str]]:
    """All undirected simple paths from ``treatment`` to ``outcome`` that start
    with an edge *into* the treatment (the backdoor paths of Pearl)."""
    return [
        path
        for path in undirected_paths(dag, treatment, outcome)
        if len(path) >= 2 and dag.has_edge(path[1], treatment)
    ]


def minimal_backdoor_set(dag: CausalDAG, treatment: str, outcome: str) -> set[str]:
    """§A.2's greedy search over the enumerated backdoor paths: every eligible
    non-descendant, then each attribute in name order dropped while every
    path stays blocked."""
    if treatment not in dag or outcome not in dag:
        missing = [a for a in (treatment, outcome) if a not in dag]
        raise IdentificationError(f"attributes {missing} are not in the causal DAG")
    current = eligible_adjustment_attributes(dag, treatment, outcome)
    paths = all_backdoor_paths(dag, treatment, outcome)
    if not all(path_is_blocked(dag, path, current) for path in paths):
        raise IdentificationError(
            f"no backdoor adjustment set exists for {treatment!r} -> {outcome!r}"
        )
    for attribute in sorted(current):
        reduced = current - {attribute}
        if all(path_is_blocked(dag, path, reduced) for path in paths):
            current = reduced
    return current
