"""Backdoor criterion: validity checks and (minimal) adjustment-set search.

Section 3.3 of the paper reduces post-update probabilities to observational
conditional probabilities via the backdoor criterion (Equation 1): a set ``C``
is a valid backdoor adjustment set w.r.t. treatment ``B`` and outcome ``Y``
when no member of ``C`` is a descendant of ``B`` or ``Y`` and ``C`` blocks every
backdoor path from ``B`` to ``Y``.

The search mirrors the paper's greedy procedure: start from all eligible
non-descendants and drop attributes one at a time while the set remains valid,
yielding a minimal (not necessarily minimum) adjustment set.  When no causal
graph is available, the engine falls back to using *all* other attributes
(the HypeR-NB variant), which the paper argues is always a superset of the true
backdoor set under its canonical model.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import IdentificationError
from .dag import CausalDAG
from .dseparation import backdoor_blocked

__all__ = [
    "eligible_adjustment_attributes",
    "satisfies_backdoor",
    "find_backdoor_set",
    "minimal_backdoor_set",
]


def eligible_adjustment_attributes(dag: CausalDAG, treatment: str, outcome: str) -> set[str]:
    """Attributes allowed in a backdoor set: non-descendants of treatment/outcome."""
    forbidden = dag.descendants(treatment) | dag.descendants(outcome) | {treatment, outcome}
    return {node for node in dag.nodes if node not in forbidden}


def satisfies_backdoor(
    dag: CausalDAG, treatment: str, outcome: str, adjustment: Iterable[str]
) -> bool:
    """Whether ``adjustment`` satisfies the backdoor criterion for (treatment, outcome)."""
    adjustment = set(adjustment)
    eligible = eligible_adjustment_attributes(dag, treatment, outcome)
    return adjustment <= eligible and backdoor_blocked(dag, treatment, outcome, adjustment)


def find_backdoor_set(dag: CausalDAG, treatment: str, outcome: str) -> set[str]:
    """Return a valid backdoor adjustment set, or raise :class:`IdentificationError`.

    The full set of eligible non-descendants is tried first (this is the
    paper's starting point); if even that does not block all backdoor paths the
    effect is not identifiable by backdoor adjustment in this graph.
    """
    if treatment not in dag or outcome not in dag:
        missing = [a for a in (treatment, outcome) if a not in dag]
        raise IdentificationError(f"attributes {missing} are not in the causal DAG")
    candidate = eligible_adjustment_attributes(dag, treatment, outcome)
    if backdoor_blocked(dag, treatment, outcome, candidate):
        return candidate
    raise IdentificationError(
        f"no backdoor adjustment set exists for {treatment!r} -> {outcome!r}"
    )


def minimal_backdoor_set(dag: CausalDAG, treatment: str, outcome: str) -> set[str]:
    """Greedy minimal backdoor set (Section A.2, "Computation of blocking set C").

    Starts from all eligible non-descendants and removes one attribute at a
    time, in name order, while the backdoor criterion continues to hold.  Each
    trial is one reachability pass.  The search reads nothing but the graph,
    so its result is kept on the DAG (:meth:`CausalDAG.memo`).
    """

    def search() -> frozenset[str]:
        current = find_backdoor_set(dag, treatment, outcome)
        for attribute in sorted(current):
            reduced = current - {attribute}  # a subset of the eligible attributes
            if backdoor_blocked(dag, treatment, outcome, reduced):
                current = reduced
        return frozenset(current)

    return set(dag.memo(("minimal_backdoor_set", treatment, outcome), search))
