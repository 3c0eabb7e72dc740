"""A constant training target is its own estimate.

When a ``FOR`` clause reads no ``POST`` value, a term's count target is 1 on
every training row, so its conditional mean is exactly 1: the estimator
predicts the target's one value without building a Gram factor, a design or a
forest (:meth:`PostUpdateEstimator._fit_fresh`).  These tests pin the value
(exact, not a mean that rounds), the work that is skipped, and the answers of
every path that reaches such a fit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.core import HowToEngine, WhatIfEngine
from repro.core.queries import HowToQuery
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.core.whatif import encode_post
from repro.datasets import make_german_syn
from repro.lang import parse_query
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import GramFactor
from repro.relational import TRUE, pre

from . import oracles

REGRESSORS = ("linear", "ridge", "forest")

COUNT_PRE_FOR = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT COUNT(POST(Credit)) "
    "FOR PRE(Age) >= 40"
)
AVG_NO_FOR = "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT AVG(POST(Credit))"
#: every shape here has a constant count target; AVG and SUM add a sum target
CONSTANT_COUNT_TEXTS = [
    COUNT_PRE_FOR,
    "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT COUNT(POST(Credit))",
    AVG_NO_FOR,
    "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT SUM(POST(Credit)) "
    "FOR PRE(Housing) >= 2 OR PRE(Age) < 30",
    "USE Credit WHEN PRE(Age) >= 35 UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT AVG(POST(Credit)) FOR PRE(Housing) >= 2",
]


@pytest.fixture(scope="module")
def german():
    return make_german_syn(300, seed=3)


def config_for(regressor: str, sample_size: int | None = None) -> EngineConfig:
    return EngineConfig(
        regressor=regressor, sample_size=sample_size, n_forest_trees=3, max_tree_depth=3
    )


def texts(c_values=(1.1, 1.3)) -> list[str]:
    return [text.format(c=c) for c in c_values for text in CONSTANT_COUNT_TEXTS]


def answer_fields(result) -> tuple:
    return (
        result.value,
        result.expected_qualifying_count,
        result.n_scope_tuples,
        result.n_blocks,
        result.backdoor_set,
    )


@pytest.mark.parametrize("value", [0.0, 1.0, 0.1])
@pytest.mark.parametrize("sample_size", [None, 90])
@pytest.mark.parametrize("regressor", REGRESSORS)
def test_a_constant_target_predicts_exactly_its_value(german, regressor, sample_size, value):
    config = config_for(regressor, sample_size)
    engine = WhatIfEngine(german.database, german.causal_dag, config)
    query = parse_query(AVG_NO_FOR.format(c=1.2))
    estimator = engine.build_estimator(query, engine.prepare(query))
    n = len(estimator.view)
    target = np.full(n, value)
    # 0.1: the mean of its copies rounds to 0.09999999999999999, the value itself does not
    assert float(np.mean(np.full(20_000, 0.1))) != 0.1
    keyed = estimator.regressor_for(("count", value), lambda: target)
    keyless = estimator.regressor_for(None, lambda: target)
    pre_status = np.asarray(estimator.view.column_view("Status"), dtype=float)
    post = {"Status": encode_post(estimator.encoder("Status"), pre_status, [MultiplyBy(1.5)])}
    idx = np.arange(n)
    for regressor_ in (keyed, keyless):
        predicted = estimator.predict_rows(regressor_, estimator.view, post, idx)
        assert predicted.shape == (1, n)
        assert (predicted == value).all()
    # nothing was factorised, stacked or grown
    assert estimator._factor is None and estimator._design is None


class FitSpy:
    """Counts Gram factors built and forests grown while it is installed."""

    def __init__(self, monkeypatch):
        self.factors = 0
        self.forests = 0
        init, fit = GramFactor.__init__, RandomForestRegressor.fit

        def counted_init(factor, *args, **kwargs):
            self.factors += 1
            return init(factor, *args, **kwargs)

        def counted_fit(forest, *args, **kwargs):
            self.forests += 1
            return fit(forest, *args, **kwargs)

        monkeypatch.setattr(GramFactor, "__init__", counted_init)
        monkeypatch.setattr(RandomForestRegressor, "fit", counted_fit)


@pytest.mark.parametrize("regressor", REGRESSORS)
def test_a_count_whose_for_reads_only_pre_fits_nothing(german, regressor, monkeypatch):
    spy = FitSpy(monkeypatch)
    config = config_for(regressor)
    cold = HypeR(german.database, german.causal_dag, config)
    cold.execute(COUNT_PRE_FOR.format(c=1.1))
    service = HypeRService(german.database, german.causal_dag, config)
    try:
        service.execute(COUNT_PRE_FOR.format(c=1.1))
        service.execute(COUNT_PRE_FOR.format(c=1.2))  # warm: the plan is bound
    finally:
        service.close()
    assert (spy.factors, spy.forests) == (0, 0)


def test_an_avg_with_no_for_builds_one_factor(german, monkeypatch):
    spy = FitSpy(monkeypatch)
    HypeR(german.database, german.causal_dag, config_for("linear")).execute(
        AVG_NO_FOR.format(c=1.1)
    )
    # the count target is constant; the sum target (Credit) is not
    assert (spy.factors, spy.forests) == (1, 0)


@pytest.mark.parametrize("regressor", ["linear", "forest"])
def test_warm_answers_equal_cold_ones_bit_for_bit(german, regressor):
    config = config_for(regressor)
    cold = HypeR(german.database, german.causal_dag, config)
    expected = [answer_fields(cold.execute(text)) for text in texts()]
    service = HypeRService(german.database, german.causal_dag, config)
    try:
        for _ in range(2):  # the second pass is warm
            assert [answer_fields(service.execute(text)) for text in texts()] == expected
    finally:
        service.close()


@pytest.mark.parametrize("regressor", ["linear", "forest"])
def test_a_two_worker_pool_answers_as_threads(german, regressor):
    config = config_for(regressor)
    threads = HypeRService(german.database, german.causal_dag, config)
    pool = HypeRService(
        german.database, german.causal_dag, config, execution="processes", n_shards=2
    )
    try:
        expected = [answer_fields(r) for r in threads.execute_many(texts())]
        assert [answer_fields(r) for r in pool.execute_many(texts())] == expected
    finally:
        pool.close()
        threads.close()


@pytest.mark.parametrize("for_clause", [TRUE, pre("Age") >= 40], ids=["no-for", "pre-for"])
@pytest.mark.parametrize("aggregate", ["count", "avg"])
@pytest.mark.parametrize("regressor", ["linear", "forest"])
def test_every_how_to_candidate_equals_its_what_if(german, regressor, aggregate, for_clause):
    config = config_for(regressor)
    query = HowToQuery(
        use=german.default_use,
        update_attributes=["Status", "Savings"],
        objective_attribute="Credit",
        objective_aggregate=aggregate,
        for_clause=for_clause,
        candidate_buckets=3,
        candidate_multipliers=(1.1,),
    )
    how_to = HowToEngine(german.database, german.causal_dag, config)
    what_if = WhatIfEngine(german.database, german.causal_dag, config)
    shared = how_to.prepare(query)
    candidates = how_to.enumerate_candidates(query, shared.view, shared.scope_mask)
    assert candidates

    def answer(chosen):
        function_of = {c.attribute: c.function for c in chosen}
        updates = [
            AttributeUpdate(a, function_of.get(a, MultiplyBy(1.0)))
            for a in query.update_attributes
        ]
        # a forest's what-if reads the how-to's estimator: its trees are drawn per estimator
        estimator = shared.estimator if regressor == "forest" else None
        return what_if.evaluate(
            oracles.candidate_what_if(query, updates), estimator=estimator
        ).value

    for candidate in candidates:
        assert how_to._candidate_value(query, shared, [candidate]) == answer([candidate])
