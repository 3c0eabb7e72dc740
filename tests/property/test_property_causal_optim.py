"""Property-based tests for the causal and optimization substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CausalDAG, minimal_backdoor_set, satisfies_backdoor
from repro.exceptions import CausalModelError, IdentificationError
from repro.optim import BranchAndBoundSolver, ExhaustiveSolver, IntegerProgram


# ---------------------------------------------------------------------------
# Random DAGs: backdoor sets returned by the search must always be valid
# ---------------------------------------------------------------------------


@st.composite
def random_dag(draw, n_nodes=6, edge_probability=0.4):
    nodes = [f"N{i}" for i in range(n_nodes)]
    dag = CausalDAG(nodes=nodes)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if draw(st.booleans()) and draw(st.floats(0, 1)) < edge_probability:
                dag.add_edge((nodes[i], nodes[j]))
    return dag


@given(random_dag(), st.data())
@settings(max_examples=60, deadline=None)
def test_minimal_backdoor_set_is_always_valid(dag, data):
    nodes = dag.nodes
    treatment = data.draw(st.sampled_from(nodes))
    outcome = data.draw(st.sampled_from([n for n in nodes if n != treatment]))
    try:
        adjustment = minimal_backdoor_set(dag, treatment, outcome)
    except IdentificationError:
        return  # nothing to check when the effect is not identifiable
    assert satisfies_backdoor(dag, treatment, outcome, adjustment)
    # the backdoor criterion's first clause, checked directly
    assert not adjustment & dag.descendants(treatment)


@given(random_dag())
@settings(max_examples=40, deadline=None)
def test_topological_order_respects_edges(dag):
    order = {node: i for i, node in enumerate(dag.topological_order())}
    for edge in dag.edges:
        assert order[edge.source] < order[edge.target]


@given(random_dag())
@settings(max_examples=40, deadline=None)
def test_adding_back_edge_raises_or_graph_stays_acyclic(dag):
    order = dag.topological_order()
    if len(order) < 2:
        return
    last, first = order[-1], order[0]
    if dag.has_edge(first, last):
        try:
            dag.add_edge((last, first))
        except CausalModelError:
            pass
        else:  # pragma: no cover - adding the reverse of an existing edge must fail
            raise AssertionError("cycle was accepted")


# ---------------------------------------------------------------------------
# Branch-and-bound vs exhaustive enumeration on random knapsacks
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=7),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_branch_and_bound_matches_exhaustive(values, data):
    weights = [data.draw(st.integers(min_value=1, max_value=10)) for _ in values]
    capacity = data.draw(st.integers(min_value=1, max_value=sum(weights)))
    program = IntegerProgram()
    for i in range(len(values)):
        program.add_binary(f"x{i}")
    program.add_constraint({f"x{i}": float(w) for i, w in enumerate(weights)}, "<=", capacity)
    program.set_objective({f"x{i}": float(v) for i, v in enumerate(values)}, maximize=True)
    bnb = BranchAndBoundSolver().solve(program)
    exact = ExhaustiveSolver().solve(program)
    assert np.isclose(bnb.objective, exact.objective)
    assert program.is_feasible(bnb.assignment)
