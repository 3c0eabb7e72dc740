"""d-separation on attribute-level causal DAGs, in one reachability pass.

The backdoor machinery needs to decide whether a set of attributes blocks every
backdoor path between the update attribute and the outcome.  A path is blocked
by a conditioning set ``Z`` when it has a non-collider in ``Z`` or a collider
with neither itself nor a descendant in ``Z``.  Rather than enumerate the
paths, one pass over (node, direction) states finds where an unblocked path
can go (the "Bayes-ball" of Shachter 1998; Koller & Friedman, Algorithm 3.1),
in time linear in the size of the graph.
"""

from __future__ import annotations

from typing import Iterable

from .dag import CausalDAG

__all__ = ["d_separated", "backdoor_blocked"]


def _reaches(
    dag: CausalDAG, x: str, y: str, conditioning: Iterable[str], first_children: Iterable[str]
) -> bool:
    """Whether an unblocked path leaves ``x`` by a parent or one of
    ``first_children`` and ends at ``y``.

    Paths are simple: ``x`` is never re-entered, and ``y`` ends a path whether
    or not it is in ``Z``.  The ball passes an unobserved node as a chain or a
    fork does, and bounces off an observed node it reached from a parent.  A
    collider with a descendant in ``Z`` therefore passes without an ancestor
    set: the ball runs down to that descendant and back up (an endpoint in
    ``Z`` lies up an unobserved chain from ``x``, or is ``y`` itself).
    """
    parents, children = dag._parents, dag._children
    z = set(conditioning)
    # (node, arrived from a child): a state of the walk
    stack = [(node, True) for node in parents[x]] + [(node, False) for node in first_children]
    seen: set[tuple[str, bool]] = set()
    while stack:
        state = stack.pop()
        node, upward = state
        if state in seen or node == x:
            continue
        if node == y:
            return True
        seen.add(state)
        if node not in z:
            stack += [(child, False) for child in children[node]]
            if upward:
                stack += [(parent, True) for parent in parents[node]]
        elif not upward:
            stack += [(parent, True) for parent in parents[node]]
    return False


def d_separated(dag: CausalDAG, x: str, y: str, conditioning: Iterable[str] = ()) -> bool:
    """Whether every undirected path between ``x`` and ``y`` is blocked."""
    dag._require(x)
    dag._require(y)
    # the one-node path from ``x`` to itself is never blocked
    return x != y and not _reaches(dag, x, y, conditioning, dag._children[x])


def backdoor_blocked(
    dag: CausalDAG, treatment: str, outcome: str, adjustment: Iterable[str]
) -> bool:
    """Whether ``adjustment``, a set of non-descendants of ``treatment``, blocks
    every backdoor path (one whose first edge points into the treatment).

    That is :func:`d_separated` on the graph with the treatment's out-edges
    cut: no path up from a non-descendant passes through the treatment, so
    the cut only keeps the pass from leaving by one of those edges.  Both
    nodes must be in ``dag``.
    """
    return not _reaches(dag, treatment, outcome, adjustment, ())
