"""A commit recomputes only what reads the columns it changed.

The service keys every cached piece of plan state by the generations of the
columns it reads (``EngineState.column_generations``), so a whole-column
commit must leave answers exactly as a cold :class:`HypeR` over the committed
data gives them — on a threads service and on a two-worker pool alike — while
estimators that read none of the changed columns stay fitted.  The property
runs histories of up to ten commits, each of one kind of column: one no plan
reads, a backdoor covariate, an update attribute, the outcome, a ``When`` /
``For`` attribute, and (Amazon-Syn) a join column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perf.workloads import AMAZON_TEMPLATES, TEMPLATES, grid_constant
from repro import EngineConfig, HypeR, HypeRService, WorkloadGenerator
from repro.datasets import make_amazon_syn, make_german_syn
from repro.ml.linear import gram_matrix
from repro.service.session import with_columns

CONFIG = EngineConfig(regressor="linear", random_state=0)

#: the column each kind of commit overwrites, per dataset
KINDS = {
    "german": {
        "unread": ("Credit", "Note"),  # added below: in no plan and not in the DAG
        "backdoor": ("Credit", "Investment"),
        "update": ("Credit", "Status"),
        "outcome": ("Credit", "Credit"),
        "clause": ("Credit", "Age"),
    },
    "amazon": {
        "unread": ("Product", "Color"),
        "backdoor": ("Product", "Quality"),
        "update": ("Product", "Price"),
        "outcome": ("Review", "Rating"),  # aggregated into the view's Rtng
        "clause": ("Product", "Category"),
        "join": ("Review", "PID"),
    },
}


def german_dataset():
    dataset = make_german_syn(1500, seed=5, continuous=True)
    credit = dataset.database["Credit"]
    noted = credit.with_column("Note", [float(i % 7) for i in range(len(credit))])
    return dataset.database.with_relation(noted), dataset


def amazon_dataset():
    dataset = make_amazon_syn(150, seed=5)
    return dataset.database, dataset


DATASETS = {"german": german_dataset, "amazon": amazon_dataset}


def queries(name: str, dataset) -> list:
    if name == "amazon":
        return [t.format(c=grid_constant(k)) for k in (300, 2900) for t in AMAZON_TEMPLATES]
    texts = [t.format(c=grid_constant(k)) for k in (500, 3100) for t in TEMPLATES]
    generator = WorkloadGenerator.for_dataset(dataset, "Credit", seed=9)
    return texts + generator.what_if_batch(3)


def answer_fields(result) -> tuple:
    return (
        result.value,
        result.expected_qualifying_count,
        result.n_scope_tuples,
        result.n_blocks,
        result.backdoor_set,
    )


def shuffled(database, relation: str, attribute: str, seed: int) -> dict:
    """``attribute`` of ``relation`` permuted: every value stays in its domain."""
    values = database[relation].column(attribute)
    return {relation: {attribute: list(np.random.default_rng(seed).permutation(values))}}


def run_history(name: str, history) -> None:
    """Commit ``history`` to a threads service and a two-worker pool, both warm,
    and after each commit compare every answer with a cold ``HypeR``'s."""
    database, dataset = DATASETS[name]()
    texts = queries(name, dataset)
    threads = HypeRService(database, dataset.causal_dag, CONFIG)
    pool = HypeRService(database, dataset.causal_dag, CONFIG, execution="processes", n_shards=2)
    try:
        for service in (threads, pool):  # every plan warm before the first commit
            service.execute_many(texts)
        for kind, seed in history:
            assignment = shuffled(database, *KINDS[name][kind], seed)
            database = with_columns(database, assignment)
            for service in (threads, pool):
                service.update_relation_columns(assignment)
            cold = HypeR(database, dataset.causal_dag, CONFIG)
            expected = [answer_fields(cold.execute(text)) for text in texts]
            assert [answer_fields(r) for r in threads.execute_many(texts)] == expected, kind
            assert [answer_fields(r) for r in pool.execute_many(texts)] == expected, kind
    finally:
        pool.close()
        threads.close()


@pytest.mark.parametrize("name", sorted(DATASETS))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_path_answers_as_cold_hyper_after_each_commit(name, data):
    history = data.draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(KINDS[name])), st.integers(0, 2**16)),
            min_size=1,
            max_size=10,
        ),
        label="commits",
    )
    run_history(name, history)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_ten_commits_of_every_kind(name):
    kinds = sorted(KINDS[name])
    run_history(name, [(kinds[k % len(kinds)], k) for k in range(10)])


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    rows=st.integers(2, 3_000),
    changed=st.integers(0, 5),
    order=st.randoms(use_true_random=False),
    seed=st.integers(0, 2**16),
)
def test_a_patched_gram_is_bitwise_the_rebuilt_one(widths, rows, changed, order, seed):
    """A refit recomputes one block's row of the Gram matrix, the memo serves
    the rest — from a design that held the blocks in another order too."""
    rng = np.random.default_rng(seed)
    names = [f"a{i}" for i in range(len(widths))]
    blocks = {name: np.asfortranarray(rng.normal(size=(rows, w))) for name, w in zip(names, widths)}
    memo: dict = {}

    def memoised(pair, build):
        if pair not in memo:
            memo[pair] = build()
        return memo[pair]

    def design(names) -> list:
        return [("", np.ones((rows, 1)))] + [(name, blocks[name]) for name in names]

    gram_matrix(design(names), memoised)
    # a commit changes one block: its products leave the memo, as their tags do
    name = names[changed % len(names)]
    blocks[name] = np.asfortranarray(rng.normal(size=blocks[name].shape))
    for pair in [pair for pair in memo if name in pair]:
        del memo[pair]
    order.shuffle(names)
    patched = gram_matrix(design(names), memoised)
    assert np.array_equal(patched, gram_matrix(design(names)))


class TestRefits:
    @pytest.fixture
    def warm(self):
        database, dataset = german_dataset()
        service = HypeRService(database, dataset.causal_dag, CONFIG)
        service.execute_many([t.format(c=grid_constant(700)) for t in TEMPLATES])
        # other constants of the same four plans
        yield service, [t.format(c=grid_constant(900)) for t in TEMPLATES]
        service.close()

    def fitted(self, service) -> dict:
        return {
            estimator.update_attributes[0]: estimator
            for estimator in service.caches.estimators.values()
        }

    def test_a_commit_no_plan_reads_refits_nothing(self, warm):
        service, texts = warm
        before, stats = self.fitted(service), service.stats()
        service.update_relation_columns(shuffled(service.database, "Credit", "Note", 1))
        service.execute_many(texts)
        counts = service.stats()
        assert counts["regressors"]["fits"] == stats["regressors"]["fits"]
        assert counts["caches"]["estimators"]["misses"] == stats["caches"]["estimators"]["misses"]
        after = self.fitted(service)
        assert after.keys() == before.keys() and all(after[a] is before[a] for a in before)

    def test_an_investment_commit_refits_the_three_plans_that_adjust_for_it(self, warm):
        service, texts = warm
        before = self.fitted(service)
        assert sorted(a for a, e in before.items() if "Investment" in e.backdoor_set) == [
            "CreditAmount", "CreditHistory", "Status",
        ]
        misses = service.stats()["caches"]["estimators"]["misses"]
        service.update_relation_columns(shuffled(service.database, "Credit", "Investment", 2))
        service.execute_many(texts)
        after = self.fitted(service)
        assert service.stats()["caches"]["estimators"]["misses"] == misses + 3
        # the Savings plan adjusts for Sex only: its estimator is the same object
        assert after["Savings"] is before["Savings"]
        assert all(after[a] is not before[a] for a in ("CreditAmount", "CreditHistory", "Status"))
