"""A constant term is a number.

A term whose regressor is constant (its training target has one value,
:meth:`~repro.ml.density.ConditionalMeanRegressor.fit_constant`) predicts that
value whatever the update does, so :func:`repro.core.whatif.causal_contribution_rows`
adds it to every variant as a number: it fits no ``ColumnEncoder``, encodes no
post value and predicts no ``(k, |idx|)`` array for it, and in a one-term plan
the k variants share one row.  These tests pin the work that is skipped, the
shared row, and answers bitwise those of the per-variant path, in which every
term is predicted as an array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.core import HowToEngine, WhatIfEngine
from repro.core import whatif as whatif_module
from repro.core.queries import HowToQuery
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.core.whatif import causal_contribution_rows
from repro.datasets import make_amazon_syn, make_german_syn
from repro.lang import parse_query
from repro.ml.density import ConditionalMeanRegressor
from repro.ml.encoding import ColumnEncoder
from repro.relational import post, pre

from . import oracles

COUNT_PRE_FOR = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT COUNT(POST(Credit)) "
    "FOR PRE(Age) >= 40"
)
#: no row has Credit > 1: the count and the sum target are 0 on every row
AVG_NO_ROW = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT AVG(POST(Credit)) "
    "FOR POST(Credit) > 1"
)
AVG_NO_FOR = "USE Credit UPDATE(Status) = {c} * PRE(Status) OUTPUT AVG(POST(Credit))"
#: terms (0,) and (0, 1) are constant (their post part is Credit > 1), (1,) is not
SUM_MIXED = (
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) OUTPUT SUM(POST(Credit)) "
    "FOR POST(Credit) > 1 OR POST(Credit) = 1"
)
#: term (0,) is constant (its post part is TRUE), (1,) and (0, 1) are not
COUNT_MIXED = (
    "USE Credit WHEN PRE(Age) >= 30 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR PRE(Age) >= 40 OR POST(Credit) = 1"
)
#: every one of its three terms constant
COUNT_ALL_CONSTANT = (
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) OUTPUT COUNT(POST(Credit)) "
    "FOR PRE(Age) >= 40 OR POST(Credit) > 1"
)
TEXTS = [COUNT_PRE_FOR, AVG_NO_ROW, AVG_NO_FOR, SUM_MIXED, COUNT_MIXED, COUNT_ALL_CONSTANT]


@pytest.fixture(scope="module")
def german():
    return make_german_syn(300, seed=3)


def config_for(regressor: str) -> EngineConfig:
    return EngineConfig(regressor=regressor, n_forest_trees=3, max_tree_depth=3)


def texts(c_values=(1.1, 1.3)) -> list[str]:
    return [text.format(c=c) for c in c_values for text in TEXTS]


def answer_fields(result, blocks: bool = True) -> tuple:
    """An answer's fields; its per-block partials only in-process (an answer
    from a pool worker carries none)."""
    return (
        result.value,
        result.expected_qualifying_count,
        result.n_scope_tuples,
        list(result.block_contributions) if blocks else None,
        result.backdoor_set,
    )


class WorkSpy:
    """Counts encoder fits, post encodings and predictions while installed."""

    def __init__(self, monkeypatch):
        self.fits = self.encodings = self.predictions = 0
        fit = ColumnEncoder.fit.__func__
        encode_post = whatif_module.encode_post
        predict_at = ConditionalMeanRegressor.predict_at

        def counted_fit(cls, *args, **kwargs):
            self.fits += 1
            return fit(cls, *args, **kwargs)

        def counted_encode_post(*args, **kwargs):
            self.encodings += 1
            return encode_post(*args, **kwargs)

        def counted_predict_at(regressor, *args, **kwargs):
            self.predictions += 1
            return predict_at(regressor, *args, **kwargs)

        monkeypatch.setattr(ColumnEncoder, "fit", classmethod(counted_fit))
        monkeypatch.setattr(whatif_module, "encode_post", counted_encode_post)
        monkeypatch.setattr(ConditionalMeanRegressor, "predict_at", counted_predict_at)

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.fits, self.encodings, self.predictions


@pytest.mark.parametrize("text", [COUNT_PRE_FOR, AVG_NO_ROW], ids=["count-pre-for", "avg-no-row"])
@pytest.mark.parametrize("regressor", ["linear", "forest"])
def test_a_plan_whose_terms_are_all_constant_encodes_and_predicts_nothing(
    german, regressor, text, monkeypatch
):
    spy = WorkSpy(monkeypatch)
    config = config_for(regressor)
    HypeR(german.database, german.causal_dag, config).execute(text.format(c=1.1))
    service = HypeRService(german.database, german.causal_dag, config)
    try:
        service.execute(text.format(c=1.1))
        service.execute(text.format(c=1.2))  # warm: the plan is bound
    finally:
        service.close()
    assert spy.counts == (0, 0, 0)


def test_an_avg_with_no_for_encodes_and_predicts_for_its_sum_regressor_only(german, monkeypatch):
    spy = WorkSpy(monkeypatch)
    engine = WhatIfEngine(german.database, german.causal_dag, config_for("linear"))
    query = parse_query(AVG_NO_FOR.format(c=1.1))
    estimator = engine.build_estimator(query, engine.prepare(query))
    engine.evaluate(query, estimator=estimator)
    # one encoder per feature, one post block (one term, one update attribute),
    # and one prediction: the constant count term is a number
    assert spy.counts == (len(estimator.feature_attributes), 1, 1)


def test_the_variants_of_a_one_term_constant_plan_share_one_count_row(german):
    engine = WhatIfEngine(german.database, german.causal_dag, config_for("linear"))
    queries = [parse_query(COUNT_PRE_FOR.format(c=c)) for c in (1.1, 1.2, 1.3)]
    prepared = engine.prepare(queries[0])
    estimator = engine.build_estimator(queries[0], prepared)
    contributions = causal_contribution_rows(
        queries[0], prepared, estimator, [q.updates for q in queries]
    )
    row = contributions[0].count_at
    assert all(c.count_at is row for c in contributions)
    assert len(row) and (row == 1.0).all()


class RowSpy:
    """Keeps each contribution row ``causal_contribution_rows`` returns, and a copy."""

    def __init__(self, monkeypatch):
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []
        kernel = whatif_module.causal_contribution_rows

        def kept(*args, **kwargs):
            contributions = kernel(*args, **kwargs)
            self.rows += [(c.count_at, c.count_at.copy()) for c in contributions]
            return contributions

        monkeypatch.setattr(whatif_module, "causal_contribution_rows", kept)


@pytest.mark.parametrize("execution", ["threads", "processes"])
def test_a_shared_row_is_unchanged_by_a_batch(german, execution, monkeypatch):
    config = config_for("linear")
    batch = [COUNT_PRE_FOR.format(c=c) for c in (1.1, 1.2, 1.3, 1.4)]
    cold = HypeR(german.database, german.causal_dag, config)
    blocks = execution == "threads"
    expected = [answer_fields(cold.execute(text), blocks) for text in batch]
    spy = RowSpy(monkeypatch)
    kwargs = {"n_shards": 2} if execution == "processes" else {}
    service = HypeRService(
        german.database, german.causal_dag, config, execution=execution, **kwargs
    )
    try:
        assert [answer_fields(r, blocks) for r in service.execute_many(batch)] == expected
    finally:
        service.close()
    if blocks:  # the kernel ran here, once for the plan group
        assert len(spy.rows) == len(batch)
        assert all(row is spy.rows[0][0] for row, _ in spy.rows)
    assert all(np.array_equal(row, copy) for row, copy in spy.rows)


def per_variant(query, prepared, estimator, update_sets, monkeypatch):
    """The kernel with constant-ness hidden, one variant at a time: every term
    predicted as an array, clipped and added row by row."""
    with monkeypatch.context() as patch:
        patch.setattr(ConditionalMeanRegressor, "constant", property(lambda regressor: None))
        return [
            causal_contribution_rows(query, prepared, estimator, [updates])[0]
            for updates in update_sets
        ]


def bits(array: np.ndarray | None) -> bytes | None:
    return None if array is None else np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize(
    "text",
    [COUNT_MIXED, SUM_MIXED, COUNT_ALL_CONSTANT, AVG_NO_FOR],
    ids=["count-mixed", "sum-mixed", "count-all-constant", "avg-no-for"],
)
@pytest.mark.parametrize("regressor", ["linear", "forest"])
def test_a_plan_with_constant_terms_answers_bitwise_as_the_per_variant_path(
    german, regressor, text, monkeypatch
):
    engine = WhatIfEngine(german.database, german.causal_dag, config_for(regressor))
    queries = [parse_query(text.format(c=c)) for c in (0.8, 1.1, 1.4)]
    prepared = engine.prepare(queries[0])
    estimator = engine.build_estimator(queries[0], prepared)
    update_sets = [q.updates for q in queries]
    stacked = causal_contribution_rows(queries[0], prepared, estimator, update_sets)
    alone = per_variant(queries[0], prepared, estimator, update_sets, monkeypatch)
    for got, expected in zip(stacked, alone):
        assert bits(got.rows) == bits(expected.rows)
        assert bits(got.count_at) == bits(expected.count_at)
        assert bits(got.sum_at) == bits(expected.sum_at)
        assert got.count_total == expected.count_total and got.sum_total == expected.sum_total


def test_a_count_reads_no_output_value_so_its_attribute_may_be_non_numeric():
    amazon = make_amazon_syn(60, seed=1)
    text = (
        "USE Product UPDATE(Price) = 1.1 * PRE(Price) OUTPUT COUNT(POST(Category)) "
        "FOR PRE(Brand) = '{brand}'"
    )
    brands = amazon.database["Product"].column_view("Brand")
    brand = brands[0]
    result = HypeR(amazon.database, amazon.causal_dag, config_for("linear")).execute(
        text.format(brand=brand)
    )
    assert result.value == sum(b == brand for b in brands)


@pytest.mark.parametrize("regressor", ["linear", "ridge", "forest"])
def test_an_encoder_built_after_constant_fits_is_the_one_a_fit_builds(german, regressor):
    engine = WhatIfEngine(german.database, german.causal_dag, config_for(regressor))
    query = parse_query(COUNT_PRE_FOR.format(c=1.1))
    constant_only = engine.build_estimator(query, engine.prepare(query))
    engine.evaluate(query, estimator=constant_only)
    assert constant_only.regressor_cache_stats["fits"] == 1
    assert constant_only._encoder is None  # nothing read one
    fitted = engine.build_estimator(query, engine.prepare(query))
    credit = np.asarray(fitted.view.column_view("Credit"), dtype=float)
    fitted.regressor_for("credit", lambda: credit)
    for attribute in fitted.feature_attributes:
        assert constant_only.encoder(attribute) == fitted.encoder(attribute)


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


def test_a_two_worker_pool_answers_as_threads(german):
    config = config_for("linear")
    threads = HypeRService(german.database, german.causal_dag, config)
    pool = HypeRService(
        german.database, german.causal_dag, config, execution="processes", n_shards=2
    )
    try:
        expected = [answer_fields(r, False) for r in threads.execute_many(texts())]
        assert [answer_fields(r, False) for r in pool.execute_many(texts())] == expected
    finally:
        pool.close()
        threads.close()


@pytest.mark.parametrize(
    "for_clause",
    [post("Credit") > 1, (pre("Age") >= 40) | (post("Credit") == 1)],
    ids=["no-row", "mixed"],
)
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
