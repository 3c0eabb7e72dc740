"""Concurrent batch execution: thread-pool results match sequential execution."""

from __future__ import annotations

import threading

import pytest

from repro import EngineConfig, HowToQuery, HypeRService, LimitConstraint, WhatIfQuery
from repro.core.updates import AttributeUpdate, MultiplyBy, SetTo
from repro.datasets import make_german_syn
from repro.relational import Relation, post, pre
from repro.service import default_max_workers


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(400, seed=5)


def mixed_batch(dataset) -> list:
    use = dataset.default_use
    batch: list = []
    for i in range(12):
        batch.append(
            WhatIfQuery(
                use=use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.05 * i))],
                output_attribute="Credit",
                output_aggregate="count",
                when=pre("Age") >= 20 + i,
                for_clause=(post("Credit") == 1),
            )
        )
    batch.append(
        HowToQuery(
            use=use,
            update_attributes=["Status"],
            objective_attribute="Credit",
            objective_aggregate="count",
            for_clause=(post("Credit") == 1),
            limits=[LimitConstraint("Status", lower=1.0, upper=4.0)],
            candidate_buckets=3,
            candidate_multipliers=(),
        )
    )
    batch.append(
        WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Savings", SetTo(3))],
            output_attribute="CreditAmount",
            output_aggregate="avg",
            for_clause=(post("Credit") == 1),
        )
    )
    return batch


class TestExecuteMany:
    def test_threadpool_matches_sequential(self, dataset):
        config = EngineConfig(regressor="linear")
        batch = mixed_batch(dataset)

        sequential_service = HypeRService(dataset.database, dataset.causal_dag, config)
        sequential = [sequential_service.execute(q) for q in batch]

        parallel_service = HypeRService(dataset.database, dataset.causal_dag, config)
        parallel = parallel_service.execute_many(batch, max_workers=4)

        assert len(parallel) == len(batch)
        for query, a, b in zip(batch, sequential, parallel):
            if isinstance(query, WhatIfQuery):
                assert a.value == b.value
            else:
                assert a.objective_value == b.objective_value
                assert a.plan() == b.plan()

    def test_order_is_preserved(self, dataset):
        config = EngineConfig(regressor="linear")
        factors = [1.0 + 0.07 * i for i in range(10)]
        batch = [
            WhatIfQuery(
                use=dataset.default_use,
                updates=[AttributeUpdate("Status", MultiplyBy(f))],
                output_attribute="Credit",
                output_aggregate="count",
                for_clause=(post("Credit") == 1),
            )
            for f in factors
        ]
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        results = service.execute_many(batch, max_workers=4)
        baseline = [service.execute(q).value for q in batch]
        assert [r.value for r in results] == baseline

    def test_empty_batch(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        assert service.execute_many([]) == []

    def test_single_worker_falls_back_to_loop(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        batch = mixed_batch(dataset)[:3]
        results = service.execute_many(batch, max_workers=1)
        assert len(results) == 3

    def test_errors_propagate(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        from repro.exceptions import HypeRError

        bad = WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("NoSuchColumn", SetTo(1))],
            output_attribute="Credit",
            output_aggregate="count",
        )
        with pytest.raises(HypeRError):
            service.execute_many([bad], max_workers=2)

    def test_return_errors_keeps_the_rest_of_the_batch(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        good = WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )
        bad = WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("NoSuchColumn", SetTo(1))],
            output_attribute="Credit",
            output_aggregate="count",
        )
        results = service.execute_many(
            [good, bad, good, "not parseable"], max_workers=2, return_errors=True
        )
        assert results[0].value == results[2].value
        assert isinstance(results[1], Exception)
        assert isinstance(results[3], Exception)

    def test_default_max_workers_is_sane(self):
        assert 1 <= default_max_workers() <= 8

    def test_executor_groups_by_estimator_key(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        batch = [
            WhatIfQuery(
                use=dataset.default_use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.1 * i))],
                output_attribute="Credit",
                output_aggregate="count",
                for_clause=(post("Credit") == 1),
            )
            for i in range(6)
        ]
        service.execute_many(batch, max_workers=3)
        # one shared plan: a single estimator entry, a single regressor fit
        stats = service.stats()
        assert stats["caches"]["estimators"]["size"] == 1
        assert stats["regressors"]["fits"] == 1


class TestColumnarStoreThreadSafety:
    def test_concurrent_lazy_build_yields_one_store(self):
        relation = Relation.from_columns(
            "R",
            {"ID": list(range(2000)), "x": [float(i) for i in range(2000)]},
            key=("ID",),
        )
        assert relation._colstore is None  # nothing has asked for the store yet
        stores = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            stores.append(relation.columnar_store())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(stores) == 8
        assert all(s is stores[0] for s in stores)
