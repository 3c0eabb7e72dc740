"""Property-based tests for the causal and optimization substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CausalDAG, d_separated, minimal_backdoor_set, satisfies_backdoor
from repro.core import HowToQuery, SetTo
from repro.core.howto import CandidateUpdate, build_howto_program, solve_how_to
from repro.exceptions import CausalModelError, IdentificationError
from repro.optim import BranchAndBoundSolver, ExhaustiveSolver, IntegerProgram
from repro.relational import UseSpec
from tests.causal import oracles


# ---------------------------------------------------------------------------
# Random DAGs: backdoor sets returned by the search must always be valid, and
# the reachability pass must decide as the path oracle does
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


def _outcome_of(search, *args):
    try:
        return search(*args)
    except IdentificationError as error:
        return str(error)


@given(st.integers(min_value=2, max_value=10).flatmap(random_dag), st.data())
@settings(max_examples=150, deadline=None)
def test_the_reachability_pass_decides_as_the_path_oracle(dag, data):
    """Sets (or the same ``IdentificationError``) and d-separation given a ``Z``
    drawn from every node, the two endpoints included."""
    nodes = dag.nodes
    x, y = data.draw(st.permutations(nodes))[:2]
    conditioning = data.draw(st.sets(st.sampled_from(nodes)))
    assert d_separated(dag, x, y, conditioning) == oracles.d_separated(dag, x, y, conditioning)
    assert _outcome_of(minimal_backdoor_set, dag, x, y) == _outcome_of(
        oracles.minimal_backdoor_set, dag, x, y
    )


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


# ---------------------------------------------------------------------------
# The how-to greedy vs exhaustive enumeration of the Section 4.3 program
# ---------------------------------------------------------------------------

#: dyadic values, so every sum is exact; ties and zero coefficients are common
COEFFICIENT_POOL = (-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0)


def _how_to(attributes, *, maximize=True, max_updates=None):
    return HowToQuery(
        use=UseSpec("T"),
        update_attributes=list(attributes),
        objective_attribute="Y",
        maximize=maximize,
        max_updates=max_updates,
    )


def _candidates(per_attribute):
    return [
        CandidateUpdate(attribute, SetTo(value), f"= {value}")
        for attribute, n_values in per_attribute.items()
        for value in range(n_values)
    ]


@st.composite
def how_to_stages(draw):
    """Candidates and 1-3 lexicographic stages ``(query, baseline, coefficients)``."""
    n_attributes = draw(st.integers(min_value=1, max_value=3))
    per_attribute = {
        f"A{i}": draw(st.integers(min_value=1, max_value=5)) for i in range(n_attributes)
    }
    candidates = _candidates(per_attribute)
    max_updates = draw(st.sampled_from([None, 1, 2]))
    coefficient = st.sampled_from(COEFFICIENT_POOL)
    stages = [
        (
            _how_to(per_attribute, maximize=draw(st.booleans()), max_updates=max_updates),
            draw(coefficient),
            {c: draw(coefficient) for c in candidates},
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return candidates, stages


@given(how_to_stages())
@settings(max_examples=150, deadline=None)
def test_how_to_greedy_matches_exhaustive_with_sequential_locks(drawn):
    candidates, stages = drawn
    locked = []  # what solve_how_to is told of the earlier stages
    locks = []  # the same stages as the program's equality constraints
    for query, baseline, coefficients in stages:
        greedy = solve_how_to(query, candidates, baseline, coefficients, locked=locked)
        program, variable_of = build_howto_program(query, candidates, coefficients, baseline)
        for expression, attained in locks:
            program.add_constraint(expression, "==", attained)
        exact = ExhaustiveSolver().solve(program)
        assert greedy.objective_value == exact.objective
        plan = {
            variable: float(greedy.per_attribute_choices[c.attribute] == c.label)
            for c, variable in variable_of.items()
        }
        assert program.is_feasible(plan)
        assert program.objective_value(plan) == greedy.objective_value
        locked.append((coefficients, query.maximize))
        locks.append((program.objective, exact.objective))


@pytest.mark.parametrize(
    "per_attribute, max_updates, n_locks",
    [
        ({"A": 1}, None, 0),
        ({"A": 2, "B": 3}, None, 0),
        ({"A": 2, "B": 3}, 1, 0),
        ({"A": 3, "B": 0, "C": 2}, 2, 1),
        ({"A": 1, "B": 1, "C": 1}, None, 2),
    ],
)
def test_how_to_reports_the_size_of_the_program_it_solves(per_attribute, max_updates, n_locks):
    query = _how_to(per_attribute, max_updates=max_updates)
    candidates = _candidates(per_attribute)
    coefficients = {c: 1.0 for c in candidates}
    locked = [(coefficients, True)] * n_locks
    result = solve_how_to(query, candidates, 0.0, coefficients, locked=locked)
    program, _variables = build_howto_program(query, candidates, coefficients, 0.0)
    for _ in range(n_locks):
        program.add_constraint(program.objective, "==", 0.0)
    assert result.n_ip_variables == program.n_variables
    assert result.n_ip_constraints == program.n_constraints
