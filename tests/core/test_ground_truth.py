"""What-if answers against the generating structural model (the paper's §5 check).

Each seed draws a small random linear-Gaussian SCM, samples a relation from
it, and asks for the average of the last attribute after ``Update(A1)`` moves
``A1`` two standard deviations up.  :class:`GroundTruthOracle` re-simulates
the true structural equations under that intervention.  HypeR (linear
regressor, backdoor adjustment) must recover the interventional shift to
within 15 % of its size on every seed; the Indep baseline, which propagates
nothing, must miss it by the whole shift on every seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AttributeUpdate,
    CausalDAG,
    Database,
    EngineConfig,
    GroundTruthOracle,
    HypeR,
    Relation,
    SetTo,
    StructuralCausalModel,
    UseSpec,
    WhatIfQuery,
)
from repro.causal import ExogenousDistribution, GaussianNoise, LinearEquation
from repro.core.baselines import make_indep_engine

SEEDS = range(30)
N_ROWS = 2_000
#: |estimate - truth| may be at most this share of |truth - observed mean|
TOLERANCE = 0.15


def random_scm(rng: np.random.Generator) -> StructuralCausalModel:
    """3-5 nodes, each forward edge with p = 0.6 and ``A1 -> last`` forced."""
    nodes = [f"A{i + 1}" for i in range(rng.integers(3, 6))]
    edges = [
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if rng.random() < 0.6 or (i == 0 and j == len(nodes) - 1)
    ]
    dag = CausalDAG(nodes=nodes, edges=edges)
    equations, exogenous = {}, {}
    for node in nodes:
        parents = dag.parents(node)
        if not parents:
            exogenous[node] = ExogenousDistribution("uniform", {"low": 0.0, "high": 10.0})
            continue
        weights = {p: float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)) for p in parents}
        equations[node] = LinearEquation(weights=weights, noise=GaussianNoise(0.5))
    return StructuralCausalModel(dag=dag, equations=equations, exogenous=exogenous)


def case(seed: int):
    """A sampled database, its SCM and the two-sd what-if on ``A1``."""
    rng = np.random.default_rng(seed)
    scm = random_scm(rng)
    columns = {name: values.tolist() for name, values in scm.sample(N_ROWS, rng).items()}
    relation = Relation.from_columns("R", {"ID": list(range(N_ROWS)), **columns}, key=("ID",))
    database = Database([relation])
    a1, last = scm.dag.nodes[0], scm.dag.nodes[-1]
    shifted = float(np.mean(columns[a1]) + 2 * np.std(columns[a1]))
    query = WhatIfQuery(
        use=UseSpec("R"),
        updates=[AttributeUpdate(a1, SetTo(shifted))],
        output_attribute=last,
        output_aggregate="avg",
    )
    truth = GroundTruthOracle(scm, random_state=seed).evaluate(query, database)
    return scm, database, query, truth, float(np.mean(columns[last]))


@pytest.mark.parametrize("seed", SEEDS)
def test_hyper_recovers_the_interventional_average_and_indep_does_not(seed):
    scm, database, query, truth, observed = case(seed)
    config = EngineConfig(regressor="linear")
    hyper = HypeR(database, scm.dag, config).what_if(query).value
    indep = make_indep_engine(database, config).evaluate(query).value
    shift = abs(truth - observed)
    assert abs(hyper - truth) <= TOLERANCE * shift, (hyper, truth, observed)
    # the same check rejects the baseline: without propagation it reports the data
    assert abs(indep - truth) > TOLERANCE * shift, (indep, truth, observed)
