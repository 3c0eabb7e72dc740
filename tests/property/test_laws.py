"""The paper's semantics as metamorphic laws, one table, over every path.

A law needs no generating model: it relates answers to other answers, or to
the observed data, and holds on any dataset.  Each row below is stated once
and checked through cold ``HypeR``, the threads service (``execute``, so
texts of one shape bind their plan at each snapshot) and the two-worker
process pool (``execute_many``, so each worker binds a plan group's plan).

* **An identity update returns the observed answer.**  ``1 * PRE(X)`` and
  ``0 + PRE(X)`` change no tuple, so ``AVG`` / ``SUM`` of ``POST(Y)`` over
  every tuple is the observed aggregate of ``Y``, within 1e-12 relative: the
  linear estimator's fitted values, taken with an intercept, average to the
  observed ones.  (A ``COUNT`` through ``FOR POST(Y) = y`` clips
  probabilities into [0, 1], and a ``WHEN`` predicts a subset; neither keeps
  that identity, so neither is in the row.)
* **A commit followed by its inverse restores every answer ``==``.**  The
  service bumps the committed column's generation twice and answers at new
  keys, with new plans; the answers are the first ones bitwise.
* **A backdoor set is a function of the DAG alone.**  Prefix every attribute
  name and each (treatment, outcome) pair's minimal set maps along, or both
  are unidentifiable.  A common prefix keeps the names' order, which is the
  order the greedy search drops attributes in.  This row reads the DAG only,
  so it runs once, not per path.
"""

from __future__ import annotations

import numpy as np
import pytest

from perf.workloads import TEMPLATES
from repro import EngineConfig, HypeR, HypeRService
from repro.causal import CausalDAG, CausalEdge, minimal_backdoor_set
from repro.datasets import make_german_syn
from repro.exceptions import IdentificationError
from repro.service.session import with_columns

CONFIG = EngineConfig(regressor="linear")
#: (update, output): the view's mutable attributes against two outcomes
IDENTITY = [
    ("Status", "Credit"),
    ("Savings", "CreditAmount"),
    ("CreditAmount", "Credit"),
    ("Housing", "CreditAmount"),
]
#: the committed column and its inverse: read by every template's estimator
COMMITTED = ("Credit", "Status")


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(600, seed=5)


class Cold:
    """A fresh ``HypeR`` per query over the latest committed database."""

    def __init__(self, dataset) -> None:
        self.database, self.dag = dataset.database, dataset.causal_dag

    def answers(self, texts: list[str]) -> list[float]:
        return [HypeR(self.database, self.dag, CONFIG).execute(text).value for text in texts]

    def commit(self, assignments: dict) -> None:
        self.database = with_columns(self.database, assignments)

    def close(self) -> None:
        pass


class Served:
    """A service: one ``execute`` per text in threads mode, a batch otherwise."""

    def __init__(self, dataset, **options) -> None:
        self.service = HypeRService(dataset.database, dataset.causal_dag, CONFIG, **options)

    def answers(self, texts: list[str]) -> list[float]:
        if self.service.execution == "processes":
            return [result.value for result in self.service.execute_many(texts)]
        return [self.service.execute(text).value for text in texts]

    def commit(self, assignments: dict) -> None:
        self.service.update_relation_columns(assignments)

    def close(self) -> None:
        self.service.close()


PATHS = {
    "cold": Cold,
    "threads": Served,
    "pool": lambda dataset: Served(dataset, execution="processes", n_shards=2),
}


@pytest.fixture(scope="module", params=list(PATHS))
def path(request, dataset):
    served = PATHS[request.param](dataset)
    yield served
    served.close()


def observed(dataset, aggregate: str, attribute: str) -> float:
    values = np.asarray(dataset.database["Credit"].column(attribute), dtype=float)
    return float(values.mean() if aggregate == "AVG" else values.sum())


def test_an_identity_update_returns_the_observed_answer(dataset, path):
    texts, expected = [], []
    for update, output in IDENTITY:
        for aggregate in ("AVG", "SUM"):
            # a non-identity constant of the shape first, so the identity binds its plan
            for function in ("2 * PRE({a})", "1 * PRE({a})", "0 + PRE({a})"):
                texts.append(
                    f"USE Credit UPDATE({update}) = {function.format(a=update)} "
                    f"OUTPUT {aggregate}(POST({output}))"
                )
                expected.append(observed(dataset, aggregate, output))
    for text, answer, truth in zip(texts, path.answers(texts), expected):
        if "2 *" not in text:
            assert abs(answer - truth) <= 1e-12 * abs(truth), text


def test_a_commit_followed_by_its_inverse_restores_every_answer(dataset, path):
    texts = [template.format(c=c) for c in (0.75, 1.5, 2.25) for template in TEMPLATES]
    relation, attribute = COMMITTED
    column = dataset.database[relation].column(attribute)
    first = path.answers(texts)
    path.commit({relation: {attribute: 5.0 - column}})
    moved = path.answers(texts)
    path.commit({relation: {attribute: column}})
    assert path.answers(texts) == first
    assert moved != first  # the commit reached the answers it restores


def test_a_backdoor_set_is_a_function_of_the_dag_alone(dataset):
    dag = dataset.causal_dag
    name = {node: f"x_{node}" for node in dag.nodes}
    relabelled = CausalDAG(
        [name[node] for node in dag.nodes],
        [
            CausalEdge(name[e.source], name[e.target], e.cross_tuple, e.within)
            for e in dag.edges
        ],
    )

    def backdoor_set(graph, treatment, outcome):
        try:
            return minimal_backdoor_set(graph, treatment, outcome)
        except IdentificationError:
            return None

    pairs = [(t, o) for t in dag.nodes for o in dag.nodes if t != o]
    for treatment, outcome in pairs:
        chosen = backdoor_set(dag, treatment, outcome)
        mapped = None if chosen is None else {name[node] for node in chosen}
        assert backdoor_set(relabelled, name[treatment], name[outcome]) == mapped
    assert any(backdoor_set(dag, t, o) for t, o in pairs)  # some pair needs a set
