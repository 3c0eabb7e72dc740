"""A batch answers as its queries do, group by group.

Every batch path — ``execute_many`` in threads mode, an inline shard pool and
a two-worker process pool — evaluates the what-ifs of one plan group (one
plan, one ``When`` / ``For``, different update constants) with one plan
lookup and one stacked kernel.  Each answer must be ``==`` the one
``execute`` gives the query alone, and each error must sit in its own slot
with the envelope code its query gets alone.  A how-to's coefficients come
from one kernel call over the baseline and every candidate, and each must be
its candidate what-if minus the baseline, bitwise.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perf.workloads import TEMPLATES
from repro import EngineConfig, HypeRService
from repro.api.core import envelope_for
from repro.core import HowToEngine, WhatIfEngine
from repro.core.results import HowToResult
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn
from repro.lang import parse_query
from repro.shard import ShardPool
from tests.core import oracles

CONFIG = EngineConfig(regressor="linear")
#: the four perf templates plus a three-disjunct ``For`` under a ``When``
GROUP_TEMPLATES = (
    *TEMPLATES,
    "USE Credit WHEN Age >= 30 UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT AVG(POST(CreditAmount)) FOR POST(Credit) = 1 "
    "OR (PRE(Age) >= 40 AND POST(Credit) = 0) OR PRE(Housing) >= 2",
)
HOW_TO = (
    "USE Credit HOWTOUPDATE Status, Savings LIMIT 1 <= POST(Status) <= 4 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
#: fails semantic checks: Age is immutable
REJECTED = "USE Credit UPDATE(Age) = 3 OUTPUT AVG(POST(Credit))"
#: few constants per template, so batches repeat plans and whole queries
CONSTANTS = (0.5, 0.75, 1.25, 1.5, 2.0)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(500, seed=13)


@pytest.fixture(scope="module")
def paths(dataset):
    """Single-query reference, and the three batch paths (no result caches)."""
    database, dag = dataset.database, dataset.causal_dag
    reference = HypeRService(database, dag, CONFIG, result_cache_size=0)
    threads = HypeRService(database, dag, CONFIG, result_cache_size=0, max_workers=3)
    inline = ShardPool(database, dag, CONFIG, n_shards=2, inline=True).start()
    processes = HypeRService(
        database, dag, CONFIG, result_cache_size=0, execution="processes", n_shards=2
    )
    batch_paths = {
        "threads": lambda queries: threads.execute_many(queries, return_errors=True),
        "inline": lambda queries: inline.run_batch(queries, return_errors=True),
        "processes": lambda queries: processes.execute_many(queries, return_errors=True),
    }
    yield reference, batch_paths
    for closeable in (reference, threads, inline, processes):
        closeable.close()


def fields(answer) -> tuple:
    """What an answer says, wherever it was computed (the pool's what-ifs
    leave without their per-block summary, and timings differ)."""
    if isinstance(answer, HowToResult):
        return (
            answer.objective_value,
            answer.baseline_value,
            answer.verified_value,
            answer.plan(),
            answer.n_candidates,
        )
    return (
        answer.value,
        answer.expected_qualifying_count,
        answer.aggregate,
        answer.output_attribute,
        answer.n_view_tuples,
        answer.n_scope_tuples,
        answer.n_blocks,
        answer.backdoor_set,
        answer.variant,
        {k: v for k, v in answer.metadata.items() if k != "worker_span"},
    )


def alone(reference: HypeRService, text: str):
    try:
        return reference.execute(text)
    except Exception as error:  # noqa: BLE001 - the envelope is compared
        return error


batches = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, len(GROUP_TEMPLATES) - 1), st.sampled_from(CONSTANTS)
        ),
        min_size=2,
        max_size=14,
    ),
    st.integers(0, 14),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(batch=batches)
def test_a_batch_answers_as_its_queries_do(paths, batch):
    reference, batch_paths = paths
    drawn, how_to_at = batch
    texts = [GROUP_TEMPLATES[t].format(c=c) for t, c in drawn]
    texts.insert(min(how_to_at, len(texts)), HOW_TO)
    texts.insert(len(texts) // 2, REJECTED)  # one query fails, in the middle
    singles = [alone(reference, text) for text in texts]
    for name, run in batch_paths.items():
        outcomes = run([parse_query(text) for text in texts])
        assert len(outcomes) == len(texts), name
        for text, single, outcome in zip(texts, singles, outcomes):
            if isinstance(single, Exception):
                assert isinstance(outcome, Exception), (name, text)
                assert envelope_for(outcome)[1].code == envelope_for(single)[1].code
                continue
            assert not isinstance(outcome, Exception), (name, text, outcome)
            assert fields(outcome) == fields(single), (name, text)
            if name == "threads" and not isinstance(single, HowToResult):
                assert outcome.block_contributions == single.block_contributions


def candidate_what_if(query, chosen):
    """``query``'s candidate what-if for ``chosen``: an attribute left alone is
    multiplied by one, so the what-if trains on the how-to's features."""
    function_of = {c.attribute: c.function for c in chosen}
    return oracles.candidate_what_if(
        query,
        [AttributeUpdate(a, function_of.get(a, MultiplyBy(1.0))) for a in query.update_attributes],
    )


@settings(max_examples=8, deadline=None)
@given(
    attributes=st.sampled_from([("Status",), ("Status", "Savings"), ("Savings", "CreditHistory")]),
    aggregate=st.sampled_from(["COUNT", "SUM", "AVG"]),
    when=st.sampled_from(["", "WHEN Age >= 35 "]),
)
def test_a_coefficient_is_its_candidate_what_if_minus_the_baseline(
    dataset, attributes, aggregate, when
):
    query = parse_query(
        f"USE Credit {when}HOWTOUPDATE {', '.join(attributes)} "
        f"TOMAXIMIZE {aggregate}(POST(Credit)) "
        "FOR POST(Credit) = 1 OR PRE(Housing) >= 2"
    )
    how_to = HowToEngine(dataset.database, dataset.causal_dag, CONFIG)
    what_if = WhatIfEngine(dataset.database, dataset.causal_dag, CONFIG)
    shared = how_to.prepare(query)
    candidates = how_to.enumerate_candidates(query, shared.view, shared.scope_mask)
    baseline, coefficients = how_to._candidate_coefficients(query, shared, candidates)

    def answer(chosen):
        return what_if.evaluate(candidate_what_if(query, chosen)).value

    assert baseline == answer([])
    for candidate in candidates:
        assert coefficients[candidate] == answer([candidate]) - baseline


def test_a_threads_batch_reads_one_snapshot(dataset, monkeypatch):
    # the second group reads Status; Status is committed while the first is evaluated
    texts = [
        "USE Credit UPDATE(Savings) = 2 * PRE(Savings) OUTPUT AVG(POST(CreditAmount))",
        "USE Credit WHEN Status >= 2 UPDATE(Savings) = 2 * PRE(Savings) "
        "OUTPUT AVG(POST(Credit))",
    ]
    status = dataset.database["Credit"].column("Status")
    committed = {"Credit": {"Status": 5 - status}}
    service = HypeRService(dataset.database, dataset.causal_dag, CONFIG, result_cache_size=0)
    before = [fields(service.execute(parse_query(text))) for text in texts]
    generation = service.generation
    plan = service.compiler.what_if_plan

    def committing(*args, **kwargs):
        if service.generation == generation:
            service.update_relation_columns(committed)
        return plan(*args, **kwargs)

    monkeypatch.setattr(service.compiler, "what_if_plan", committing)
    outcomes = service.execute_many([parse_query(text) for text in texts], max_workers=1)
    monkeypatch.undo()
    assert service.generation == generation + 1
    after = [fields(service.execute(parse_query(text))) for text in texts]
    service.close()
    assert [fields(outcome) for outcome in outcomes] == before
    assert after[1] != before[1]
