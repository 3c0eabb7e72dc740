"""Plan-affine dealing: the rule (pure, no processes), then through the pool.

The rule is :meth:`repro.service.fingerprint.PlanDealer.deal`; the shard pool
and the cluster coordinator both call it (the cluster half of the real-path
checks is ``tests/cluster/test_cluster_dealing.py``).
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.datasets import make_german_syn
from repro.lang import parse_query
from repro.obs import trace as obs_trace
from repro.service import fingerprint as fingerprint_module
from repro.service.fingerprint import PlanDealer, fingerprint_query
from repro.shard import ShardPool, partition_database

CONFIG = EngineConfig(regressor="linear")
#: four plans over the German-Syn view: four update attributes, so four estimators
TEMPLATES = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "USE Credit UPDATE(CreditHistory) = {c} * PRE(CreditHistory) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
)


def batch(
    per_plan: int, plans=range(4), *, shuffle: int | None = None, base: float = 0.6
) -> list[str]:
    """``per_plan`` constants of each plan, template order or shuffled by a seed."""
    texts = [
        TEMPLATES[plan].format(c=round(base + 0.05 * k + 0.01 * plan, 3))
        for k in range(per_plan)
        for plan in plans
    ]
    if shuffle is not None:
        random.Random(shuffle).shuffle(texts)
    return texts


def plan_of(text: str) -> int:
    return next(i for i, t in enumerate(TEMPLATES) if text.startswith(t[:24]))


def deal(dealer: PlanDealer, texts: list[str], workers, generation=0) -> list[int]:
    return dealer.deal(
        [
            fingerprint_query(parse_query(text), CONFIG, generation=generation)
            for text in texts
        ],
        workers,
    )


def homes(texts: list[str], dealt: list[int]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for text, worker in zip(texts, dealt):
        out.setdefault(plan_of(text), set()).add(worker)
    return out


class TestDealingRule:
    def test_a_plan_keeps_its_worker_from_batch_to_batch(self):
        dealer = PlanDealer()
        first = batch(4)
        placed = homes(first, deal(dealer, first, range(2)))
        assert all(len(workers) == 1 for workers in placed.values())
        for seed in range(5):  # other constants, orders, sizes and generations
            texts = batch(2 + seed % 3, shuffle=seed)
            assert homes(texts, deal(dealer, texts, range(2), generation=seed)) == placed

    def test_a_plan_is_homed_by_its_fingerprint_at_any_generation_and_dag(self, dataset):
        # the service's fingerprints embed its generation vector and DAG
        # identity; the dealer reads neither, so a plan's home does not move
        query = parse_query(batch(1)[0])
        service = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
        try:
            served = service.fingerprint(query)
        finally:
            service.close()
        fingerprints = [
            fingerprint_query(query, CONFIG),
            fingerprint_query(query, CONFIG, generation=(("Credit", 7),), dag=dataset.causal_dag),
            served,
        ]
        assert len({f.estimator_key for f in fingerprints}) == 3
        assert len({f.home_key for f in fingerprints}) == 1
        other = fingerprint_query(parse_query(batch(1, plans=[1])[0]), CONFIG)
        assert other.home_key != fingerprints[0].home_key
        dealer = PlanDealer()
        assert dealer.deal([other, fingerprints[0]], range(2)) == [0, 1]
        for fingerprint in fingerprints:
            assert dealer.deal([fingerprint, other], range(2)) == [1, 0]

    def test_four_plans_of_four_on_two_workers_split_evenly(self):
        dealer = PlanDealer()
        texts = batch(4, shuffle=1)
        dealt = deal(dealer, texts, range(2))
        assert Counter(dealt) == {0: 8, 1: 8}
        assert all(len(w) == 1 for w in homes(texts, dealt).values())

    def test_four_plans_of_two_on_three_nodes_stay_under_the_bound_without_churn(self):
        dealer = PlanDealer()
        bound = math.ceil(fingerprint_module._BOUNDED_LOAD * math.ceil(8 / 3))
        placed = None
        for seed in range(20):
            texts = batch(2, shuffle=seed)
            dealt = deal(dealer, texts, [0, 1, 2])
            assert max(Counter(dealt).values()) <= bound
            assert set(dealt) == {0, 1, 2}
            if placed is None:
                placed = homes(texts, dealt)
            assert homes(texts, dealt) == placed  # no plan ever moved

    def test_a_one_plan_sweep_uses_every_worker(self):
        dealer = PlanDealer()
        texts = batch(16, plans=[0])
        assert Counter(deal(dealer, texts, range(2))) == {0: 8, 1: 8}
        assert Counter(deal(dealer, texts[:9], range(3))) == {0: 3, 1: 3, 2: 3}

    def test_an_overloaded_home_sheds_a_plan_for_good(self):
        dealer = PlanDealer()
        deal(dealer, batch(1), range(2))  # homes: plans 0, 2 -> 0 and 1, 3 -> 1
        # worker 0 would carry 6 + 6 of 16, above 1.25 x 8: plan 2 leaves
        texts = batch(6, plans=[0, 2]) + batch(2, plans=[1, 3])
        dealt = deal(dealer, texts, range(2))
        assert homes(texts, dealt) == {0: {0}, 2: {1}, 1: {1}, 3: {1}}
        again = batch(1)
        assert homes(again, deal(dealer, again, range(2)))[2] == {1}

    def test_an_unhealthy_home_rehomes_and_does_not_move_back(self):
        dealer = PlanDealer()
        texts = batch(2)
        before = homes(texts, deal(dealer, texts, [0, 1, 2]))
        at_zero = {plan for plan, workers in before.items() if workers == {0}}
        assert at_zero
        during = homes(texts, deal(dealer, texts, [1, 2]))  # node 0 is out
        assert all(workers <= {1, 2} for workers in during.values())
        assert all(during[plan] == before[plan] for plan in before if plan not in at_zero)
        after = homes(texts, deal(dealer, texts, [0, 1, 2]))  # and back in
        assert after == during

    def test_same_calls_same_deal(self):
        calls = [(batch(2, shuffle=s), [0, 1, 2] if s % 3 else [0, 2]) for s in range(12)]
        runs = []
        for _ in range(2):
            dealer = PlanDealer()
            runs.append([deal(dealer, texts, workers) for texts, workers in calls])
        assert runs[0] == runs[1]

    def test_the_home_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(fingerprint_module, "_MAX_HOMES", 2)
        dealer = PlanDealer()
        deal(dealer, batch(1), range(2))
        assert len(dealer._homes) == 2
        assert deal(dealer, [], range(2)) == []


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=11)


def worker_builds(trace: obs_trace.TraceContext) -> Counter:
    """``estimator_builds`` per shard, summed over a trace's worker spans."""
    builds: Counter = Counter()

    def walk(span: dict) -> None:
        if span["name"].startswith("shard-worker["):
            builds[span["meta"]["shard"]] += span["meta"]["estimator_builds"]
        for child in span.get("children", ()):
            walk(child)

    walk(trace.to_wire())
    return builds


class TestThroughThePool:
    def test_answers_come_back_in_input_order(self, dataset):
        texts = batch(3, shuffle=4)
        session = HypeR(dataset.database, dataset.causal_dag, CONFIG)
        plan = partition_database(dataset.database, dataset.causal_dag, 2)
        with ShardPool(plan, dataset.causal_dag, CONFIG, inline=True) as pool:
            answers = pool.run_batch([parse_query(text) for text in texts])
        assert [a.value for a in answers] == [session.execute(t).value for t in texts]

    def test_a_commit_costs_one_estimator_build_per_plan_that_reads_it(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, CONFIG, execution="processes", n_shards=2
        )
        single = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
        investment = [float(v) for v in dataset.database["Credit"].column("Investment")]
        try:
            service.execute_many(batch(4))
            # dealt by the service's own fingerprints, one home per plan
            homes_before = dict(service._pool._dealer._homes)
            assert len(homes_before) == 4
            per_commit = []
            for commit in range(2):
                column = [min(5.0, v + commit + 1) for v in investment]
                for target in (service, single):
                    target.update_relation_columns({"Credit": {"Investment": column}})
                texts = batch(4, shuffle=commit)
                trace = obs_trace.TraceContext()
                with obs_trace.activate(trace):
                    answers = service.execute_many(texts)
                per_commit.append(worker_builds(trace))
                assert [a.value for a in answers] == [
                    single.execute(text).value for text in texts
                ]
                # the batch after it finds every plan fitted where it is dealt
                trace = obs_trace.TraceContext()
                with obs_trace.activate(trace):
                    service.execute_many(batch(4, shuffle=10 + commit, base=0.9))
                assert sum(worker_builds(trace).values()) == 0
                # a commit moves the generation, not a plan's home
                assert dict(service._pool._dealer._homes) == homes_before
            # Investment is a backdoor covariate of three of the four plans:
            # three builds (six when positions were dealt), each on the worker
            # its plan lived on before the commit; the Savings plan adjusts
            # for Sex only and keeps its estimator
            savings = fingerprint_query(parse_query(TEMPLATES[2].format(c=1)), CONFIG)
            refits = Counter(
                worker for plan, worker in homes_before.items() if plan != savings.home_key
            )
            assert sum(refits.values()) == 3
            assert per_commit == [refits] * 2
        finally:
            service.close()
            single.close()
