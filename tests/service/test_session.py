"""Service correctness: warm results equal cold results, invalidation, stats."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import (
    EngineConfig,
    HowToEngine,
    HowToQuery,
    HypeR,
    HypeRService,
    LimitConstraint,
    WhatIfEngine,
    WhatIfQuery,
)
from repro.api.core import ErrorEnvelope, envelope_for
from repro.core.updates import AttributeUpdate, MultiplyBy, SetTo
from repro.datasets import make_amazon_syn, make_german_syn
from repro.exceptions import QuerySemanticsError
from repro.relational import columnar, post, pre
from tests.core.oracles import candidate_what_if


def suite_20(dataset) -> list[WhatIfQuery]:
    """20 what-if queries from 4 templates x 5 parameter settings."""
    use = dataset.default_use
    queries: list[WhatIfQuery] = []
    for i in range(5):
        queries.append(
            WhatIfQuery(
                use=use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.1 * i))],
                output_attribute="Credit",
                output_aggregate="count",
                for_clause=(post("Credit") == 1),
            )
        )
        queries.append(
            WhatIfQuery(
                use=use,
                updates=[AttributeUpdate("Savings", SetTo(i + 1))],
                output_attribute="CreditAmount",
                output_aggregate="avg",
                when=pre("Age") >= 25 + i,
                for_clause=(post("Credit") == 1),
            )
        )
        queries.append(
            WhatIfQuery(
                use=use,
                updates=[AttributeUpdate("Housing", MultiplyBy(0.8 + 0.1 * i))],
                output_attribute="CreditAmount",
                output_aggregate="sum",
                for_clause=(post("CreditAmount") >= 1000.0 * (i + 1)),
            )
        )
        queries.append(
            WhatIfQuery(
                use=use,
                updates=[AttributeUpdate("Status", SetTo(i))],
                output_attribute="Credit",
                output_aggregate="count",
                when=pre("Sex") == (i % 2),
                for_clause=(post("Credit") == 1),
            )
        )
    return queries


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=11)


class TestWarmEqualsCold:
    def test_20_query_suite_bitwise_equal(self, dataset):
        config = EngineConfig(regressor="linear")
        queries = suite_20(dataset)
        cold = HypeR(dataset.database, dataset.causal_dag, config)
        cold_results = [cold.what_if(q) for q in queries]
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        warm_results = [service.execute(q) for q in queries]
        for query, a, b in zip(queries, cold_results, warm_results):
            assert a.value == b.value, query.describe()
            assert a.expected_qualifying_count == b.expected_qualifying_count
            assert a.backdoor_set == b.backdoor_set
        # re-running the warm suite must reproduce itself exactly, too
        rerun = [service.execute(q) for q in queries]
        assert [r.value for r in rerun] == [r.value for r in warm_results]


class TestServiceBehaviour:
    def test_estimators_are_shared_across_parameter_variants(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        for factor in (1.05, 1.1, 1.2, 1.3, 1.4):
            service.execute(
                WhatIfQuery(
                    use=dataset.default_use,
                    updates=[AttributeUpdate("Status", MultiplyBy(factor))],
                    output_attribute="Credit",
                    output_aggregate="count",
                    for_clause=(post("Credit") == 1),
                )
            )
        stats = service.stats()
        assert stats["n_queries"] == 5
        assert stats["caches"]["estimators"]["size"] == 1
        assert stats["caches"]["estimators"]["hits"] == 4
        assert stats["regressors"]["fits"] == 1
        assert stats["regressors"]["hits"] == 4

    def test_sql_text_execution(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        text = (
            "USE Credit UPDATE(Status) = 4 "
            "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        )
        cold = HypeR(dataset.database, dataset.causal_dag, config).execute(text)
        assert service.execute(text).value == cold.value

    def test_how_to_equals_cold_engine(self, dataset):
        config = EngineConfig(regressor="linear")
        query = HowToQuery(
            use=dataset.default_use,
            update_attributes=["Status", "Housing"],
            objective_attribute="Credit",
            objective_aggregate="count",
            for_clause=(post("Credit") == 1),
            limits=[
                LimitConstraint("Status", lower=1.0, upper=4.0),
                LimitConstraint("Housing", lower=1.0, upper=3.0),
            ],
            candidate_buckets=3,
            candidate_multipliers=(),
        )
        cold = HowToEngine(dataset.database, dataset.causal_dag, config).evaluate(query)
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        warm_first = service.how_to(query)
        warm_second = service.how_to(query)
        for warm in (warm_first, warm_second):
            assert warm.objective_value == cold.objective_value
            assert warm.baseline_value == cold.baseline_value
            assert warm.plan() == cold.plan()
        stats = service.stats()
        # the identical repeat is served straight from the result cache
        assert stats["caches"]["results"]["hits"] == 1
        assert warm_second is warm_first

    def test_what_if_and_how_to_share_estimator(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        service.execute(
            WhatIfQuery(
                use=dataset.default_use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.1))],
                output_attribute="Credit",
                output_aggregate="count",
                for_clause=(post("Credit") == 1),
            )
        )
        service.how_to(
            HowToQuery(
                use=dataset.default_use,
                update_attributes=["Status"],
                objective_attribute="Credit",
                objective_aggregate="count",
                for_clause=(post("Credit") == 1),
                limits=[LimitConstraint("Status", lower=1.0, upper=4.0)],
                candidate_buckets=3,
                candidate_multipliers=(),
            )
        )
        assert service.stats()["caches"]["estimators"]["size"] == 1

    def test_indep_variant_skips_estimators(self, dataset):
        config = EngineConfig(regressor="linear", variant="indep")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        cold = HypeR(dataset.database, dataset.causal_dag, config)
        query = WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )
        assert service.execute(query).value == cold.what_if(query).value
        assert service.stats()["caches"]["estimators"]["size"] == 0

    def test_regressor_cache_inside_shared_estimator_is_bounded(self, dataset, monkeypatch):
        # One estimator is shared across every For-literal variant of a plan;
        # its internal per-target regressor cache must not grow unboundedly.
        # (The real bound is 256 — above the 126 keys one evaluation of a
        # 6-disjunct plan touches; shrink it here to exercise eviction.)
        import repro.core.estimator as estimator_module

        monkeypatch.setattr(estimator_module, "_MAX_CACHED_REGRESSORS", 8)
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        for step in range(40):
            service.execute(
                WhatIfQuery(
                    use=dataset.default_use,
                    updates=[AttributeUpdate("Status", SetTo(4))],
                    output_attribute="Credit",
                    output_aggregate="count",
                    for_clause=(post("CreditAmount") >= 100.0 * step),
                )
            )
        stats = service.stats()
        assert stats["caches"]["estimators"]["size"] == 1
        assert stats["regressors"]["fits"] == 40
        assert stats["regressors"]["cached"] <= 8

    def test_lru_eviction_bounds_under_many_plans(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database, dataset.causal_dag, config, estimator_cache_size=2
        )
        for attribute in ("Status", "Housing", "Savings", "Investment"):
            service.execute(
                WhatIfQuery(
                    use=dataset.default_use,
                    updates=[AttributeUpdate(attribute, MultiplyBy(1.1))],
                    output_attribute="Credit",
                    output_aggregate="count",
                    for_clause=(post("Credit") == 1),
                )
            )
        stats = service.stats()["caches"]["estimators"]
        assert stats["size"] <= 2
        assert stats["evictions"] == 2
        # counters of evicted estimators are folded into running totals,
        # so the regressor fit count stays monotonic (one fit per plan)
        assert service.stats()["regressors"]["fits"] == 4

    def test_hyper_facade_service_constructor(self, dataset):
        config = EngineConfig(regressor="linear")
        session = HypeR(dataset.database, dataset.causal_dag, config)
        service = session.service(max_workers=2)
        assert isinstance(service, HypeRService)
        query = suite_20(dataset)[0]
        assert service.execute(query).value == session.what_if(query).value


class TestResultCache:
    def build_query(self, dataset, factor=1.1) -> WhatIfQuery:
        return WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", MultiplyBy(factor))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )

    def test_identical_repeat_is_served_from_cache(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        first = service.execute(self.build_query(dataset))
        second = service.execute(self.build_query(dataset))
        assert second is first
        stats = service.stats()["caches"]["results"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_parameter_change_misses(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        service.execute(self.build_query(dataset, 1.1))
        service.execute(self.build_query(dataset, 1.2))
        stats = service.stats()["caches"]["results"]
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_database_update_invalidates_results(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        query = self.build_query(dataset)
        before = service.execute(query)
        relation = service.database["Credit"]
        credit = np.asarray(relation.column("Credit"), dtype=float)
        credit[::2] = 1.0 - credit[::2]
        service.update_database(
            service.database.with_relation(relation.with_column("Credit", credit))
        )
        after = service.execute(query)
        assert after is not before
        assert after.value != before.value

    def test_ttl_expires_entries(self, dataset):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            EngineConfig(regressor="linear"),
            result_ttl_seconds=30.0,
        )
        query = self.build_query(dataset)
        first = service.execute(query)
        assert service.execute(query) is first
        # age the entry past its TTL via the cache's internal clock
        results = service.caches.results
        results._inserted_at = {
            key: stamp - 60.0 for key, stamp in results._inserted_at.items()
        }
        assert service.execute(query) is not first

    def test_zero_size_disables_result_caching(self, dataset):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            EngineConfig(regressor="linear"),
            result_cache_size=0,
        )
        query = self.build_query(dataset)
        assert service.execute(query) is not service.execute(query)
        assert service.stats()["caches"]["results"]["misses"] == 0


class TestFineGrainedInvalidation:
    @pytest.fixture()
    def service(self, dataset):
        from repro import Database, Relation

        audit = Relation.from_columns(
            "Audit",
            {"AuditID": list(range(8)), "Note": [float(i) for i in range(8)]},
            key=["AuditID"],
        )
        relations = list(dataset.database) + [audit]
        database = Database(relations, dataset.database.foreign_keys)
        return HypeRService(
            database, dataset.causal_dag, EngineConfig(regressor="linear")
        )

    def build_query(self, dataset) -> WhatIfQuery:
        return WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )

    def test_unrelated_update_keeps_estimators_warm(self, service, dataset):
        query = self.build_query(dataset)
        before = service.execute(query)
        assert service.stats()["caches"]["estimators"]["size"] == 1
        fits_before = service.stats()["regressors"]["fits"]

        audit = service.database["Audit"]
        updated = audit.with_column("Note", [float(i) + 0.5 for i in range(8)])
        service.update_database(service.database.with_relation(updated))

        assert service.relation_generations["Audit"] == 1
        assert service.relation_generations["Credit"] == 0
        # the estimator and view built from Credit survived the Audit update
        assert service.stats()["caches"]["estimators"]["size"] == 1
        assert service.stats()["caches"]["views"]["size"] == 1
        after = service.execute(query)
        assert after.value == before.value
        assert service.stats()["regressors"]["fits"] == fits_before  # no refit

    def test_dependent_update_evicts(self, service, dataset):
        query = self.build_query(dataset)
        service.execute(query)
        relation = service.database["Credit"]
        credit = np.asarray(relation.column("Credit"), dtype=float)
        credit[::3] = 1.0 - credit[::3]
        service.update_database(
            service.database.with_relation(relation.with_column("Credit", credit))
        )
        assert service.relation_generations["Credit"] == 1
        assert service.stats()["caches"]["estimators"]["size"] == 0
        cold = HypeR(service.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        assert service.execute(query).value == cold.what_if(query).value

    def test_a_key_commit_evicts_the_block_labels(self, service, dataset):
        query = self.build_query(dataset)
        before = service.execute(query)
        assert service.stats()["caches"]["blocks"]["size"] == 1
        audit = service.database["Audit"]
        service.update_database(
            service.database.with_relation(audit.with_column("AuditID", list(range(8, 16))))
        )
        # the labelling reads every key: it is rebuilt, and the answers with it
        assert service.stats()["caches"]["blocks"]["size"] == 0
        assert service.execute(query).value == before.value
        assert service.stats()["caches"]["blocks"]["size"] == 1

    def test_a_non_key_commit_keeps_the_block_labels(self, service, dataset):
        query = self.build_query(dataset)
        service.execute(query)
        misses = service.stats()["caches"]["blocks"]["misses"]
        audit = service.database["Audit"]
        service.update_database(
            service.database.with_relation(
                audit.with_column("Note", [float(i) - 1.0 for i in range(8)])
            )
        )
        # no key, foreign key or grouping column changed: the labels stay
        assert service.stats()["caches"]["blocks"]["size"] == 1
        service.execute(self.build_query(dataset))
        assert service.stats()["caches"]["blocks"]["misses"] == misses

    def test_removed_relation_evicts_only_its_dependents(self, service, dataset):
        from repro import Database

        query = self.build_query(dataset)
        before = service.execute(query)
        fits_before = service.stats()["regressors"]["fits"]
        blocks_evictions = service.stats()["caches"]["blocks"]["evictions"]
        remaining = [r for r in service.database if r.name != "Audit"]
        changed = service.update_database(
            Database(remaining, service.database.foreign_keys)
        )
        assert changed == {"Audit"}
        assert "Audit" not in service.database
        # the Credit estimator and view never depended on Audit: still warm
        assert service.stats()["caches"]["estimators"]["size"] == 1
        assert service.stats()["caches"]["views"]["size"] == 1
        # the block labels (tagged with every relation) went via evict_tagged,
        # which counts its victims — this is targeted eviction, not clear()
        assert service.stats()["caches"]["blocks"]["evictions"] == blocks_evictions + 1
        hits_before = service.stats()["caches"]["estimators"]["hits"]
        after = service.execute(query)
        assert after.value == before.value
        assert service.stats()["regressors"]["fits"] == fits_before  # no refit
        assert service.stats()["caches"]["estimators"]["hits"] > hits_before

    def test_renamed_relation_keeps_unrelated_entries_warm(self, service, dataset):
        from repro import Database, Relation

        query = self.build_query(dataset)
        service.execute(query)
        fits_before = service.stats()["regressors"]["fits"]
        renamed = Relation.from_columns(
            "AuditArchive",
            {"AuditID": list(range(8)), "Note": [float(i) for i in range(8)]},
            key=["AuditID"],
        )
        relations = [r for r in service.database if r.name != "Audit"] + [renamed]
        changed = service.update_database(
            Database(relations, service.database.foreign_keys)
        )
        # a rename is a removal plus an addition: both names' dependents go
        assert changed == {"Audit", "AuditArchive"}
        assert "AuditArchive" in service.database and "Audit" not in service.database
        assert service.stats()["caches"]["estimators"]["size"] == 1
        hits_before = service.stats()["caches"]["estimators"]["hits"]
        service.execute(query)
        assert service.stats()["regressors"]["fits"] == fits_before
        assert service.stats()["caches"]["estimators"]["hits"] > hits_before

    def test_a_commit_to_every_relation_evicts_only_what_reads_a_changed_column(
        self, service, dataset
    ):
        query = self.build_query(dataset)
        service.execute(query)
        assert service.stats()["caches"]["estimators"]["size"] == 1
        estimator_evictions = service.stats()["caches"]["estimators"]["evictions"]
        blocks_evictions = service.stats()["caches"]["blocks"]["evictions"]
        credit = service.database["Credit"]
        flipped = 1.0 - np.asarray(credit.column("Credit"), dtype=float)
        audit = service.database["Audit"]
        database = service.database.with_relation(
            credit.with_column("Credit", flipped)
        ).with_relation(audit.with_column("Note", [float(i) + 2.0 for i in range(8)]))
        changed = service.update_database(database)
        assert changed == set(service.database.relation_names)
        # the estimator reads the outcome Credit: evicted by its tag, one by one
        assert service.stats()["caches"]["estimators"]["size"] == 0
        assert (
            service.stats()["caches"]["estimators"]["evictions"] == estimator_evictions + 1
        )
        # the block labels read no changed column: kept
        assert service.stats()["caches"]["blocks"]["size"] == 1
        assert service.stats()["caches"]["blocks"]["evictions"] == blocks_evictions
        cold = HypeR(service.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        assert service.execute(query).value == cold.what_if(query).value


class TestCostAwareEviction:
    def test_weight_budget_evicts_despite_entry_headroom(self, dataset):
        config = EngineConfig(regressor="linear")
        probe = HypeRService(dataset.database, dataset.causal_dag, config)
        probe.execute(
            WhatIfQuery(
                use=dataset.default_use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.1))],
                output_attribute="Credit",
                output_aggregate="count",
                for_clause=(post("Credit") == 1),
            )
        )
        one_weight = probe.stats()["caches"]["estimators"]["weight"]
        assert one_weight > 0

        # budget for ~1.5 estimators: the second plan must evict the first
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            estimator_cache_size=64,
            estimator_cache_weight=int(one_weight * 1.5),
        )
        for attribute in ("Status", "Housing", "Savings"):
            service.execute(
                WhatIfQuery(
                    use=dataset.default_use,
                    updates=[AttributeUpdate(attribute, MultiplyBy(1.1))],
                    output_attribute="Credit",
                    output_aggregate="count",
                    for_clause=(post("Credit") == 1),
                )
            )
        stats = service.stats()["caches"]["estimators"]
        # plans have different feature counts, so at least one (typically two)
        # of the three estimators must have been evicted to stay in budget
        assert stats["evictions"] >= 1
        assert stats["weight"] <= int(one_weight * 1.5)
        assert stats["size"] < 3
        # monotonic regressor totals still fold in evicted estimators
        assert service.stats()["regressors"]["fits"] == 3


ANSWER_FIELDS = (
    "value", "expected_qualifying_count", "n_scope_tuples", "n_blocks", "metadata",
)


def answer_fields(result) -> tuple:
    return tuple(getattr(result, name) for name in ANSWER_FIELDS)


def sweep_query(dataset, constant: float, age: float) -> WhatIfQuery:
    return WhatIfQuery(
        use=dataset.default_use,
        updates=[AttributeUpdate("Status", MultiplyBy(constant))],
        output_attribute="CreditAmount",
        output_aggregate="avg",
        when=pre("Age") >= age,
        for_clause=(post("Credit") == 1),
    )


class TestPlanKernelCache:
    """The per-view kernel cache: shared by threads, bounded, keyed by estimator."""

    @pytest.mark.parametrize("budget", [None, 24_000])
    def test_concurrent_variants_equal_single_threaded(
        self, dataset, monkeypatch, budget
    ):
        if budget is not None:  # small enough that the threads also race evictions
            monkeypatch.setattr(columnar, "_KERNEL_CACHE_BYTES", budget)
        config = EngineConfig(regressor="linear")
        queries = [
            sweep_query(dataset, 0.5 + 0.005 * i, 20.0 + (i % 7)) for i in range(200)
        ]
        single = HypeRService(
            dataset.database, dataset.causal_dag, config, result_cache_size=0
        )
        expected = [answer_fields(single.execute(query)) for query in queries]
        service = HypeRService(
            dataset.database, dataset.causal_dag, config, result_cache_size=0
        )
        answers: list = [None] * len(queries)

        def run(worker: int) -> None:
            for i in range(worker, len(queries), 4):
                answers[i] = answer_fields(service.execute(queries[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == expected
        (kernels,) = service.caches.kernels.values()
        assert kernels.nbytes <= columnar._KERNEL_CACHE_BYTES

    def test_literal_sweep_stays_within_the_byte_budget(self, dataset, monkeypatch):
        budget = 200_000
        monkeypatch.setattr(columnar, "_KERNEL_CACHE_BYTES", budget)
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database, dataset.causal_dag, config, result_cache_size=0
        )
        cold = HypeR(dataset.database, dataset.causal_dag, config)
        seen = 0
        for i in range(500):  # 500 distinct When literals over one plan
            query = sweep_query(dataset, 1.1, 18.0 + 0.1 * i)
            warm = service.execute(query)
            (kernels,) = service.caches.kernels.values()
            assert kernels.nbytes <= budget
            seen = max(seen, len(kernels))
            assert answer_fields(warm) == answer_fields(cold.what_if(query))
        # entries left as the sweep went on: the budget, not luck, kept it small
        assert len(kernels) <= seen < 500
        # a literal evicted long ago is rebuilt, not answered from anything stale
        first = sweep_query(dataset, 1.1, 18.0)
        assert answer_fields(service.execute(first)) == answer_fields(cold.what_if(first))

    def test_a_linear_plan_keeps_partial_sums_over_shared_blocks(self, dataset, monkeypatch):
        asked: list = []
        real_get = columnar.KernelCache.get

        def spy(cache, key, build, reads=()):
            asked.append(key[0])
            return real_get(cache, key, build, reads)

        monkeypatch.setattr(columnar.KernelCache, "get", spy)
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database, dataset.causal_dag, config, result_cache_size=0
        )
        # the cold reference is given no kernel cache: same function, kernels=None
        cold = HypeR(dataset.database, dataset.causal_dag, config)
        for i in range(6):
            query = sweep_query(dataset, 1.0 + 0.01 * i, 30.0)
            assert answer_fields(service.execute(query)) == answer_fields(cold.what_if(query))
        # an AVG plan, one row set: its count and its sum regressor each keep
        # their own partial sum, asked for by every variant and built once,
        # from one encoded block per backdoor attribute that both read
        (kernels,) = service.caches.kernels.values()
        (estimator,) = service.caches.estimators.values()
        assert asked.count("base") == 2 * 6
        assert asked.count("block") == 2 * len(estimator.backdoor_set)
        assert estimator.regressor_cache_stats["fits"] == 2
        assert estimator._design is None  # dropped by the second variant's cache hit
        before = len(kernels)
        service.execute(sweep_query(dataset, 1.5, 30.0))
        assert len(kernels) == before  # a further variant adds nothing

    def test_an_entry_over_budget_is_returned_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(columnar, "_KERNEL_CACHE_BYTES", 64)
        cache = columnar.KernelCache()
        big = cache.get("big", lambda: np.zeros(100))
        assert big.nbytes > 64 and len(cache) == 0 and cache.nbytes == 0
        small = cache.get("small", lambda: np.zeros(4))
        assert cache.get("small", lambda: np.ones(4)) is small and len(cache) == 1

    def test_a_commit_rebuilds_only_the_kernel_entries_that_read_it(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        query = sweep_query(dataset, 1.1, 30.0)
        service.execute(query)
        (kernels,) = service.caches.kernels.values()
        (estimator,) = service.caches.estimators.values()
        assert "Investment" in estimator.backdoor_set
        entries = len(kernels)
        investment = list(service.database["Credit"].column("Investment"))
        service.update_relation_columns({"Credit": {"Investment": investment[::-1]}})
        # the store lives on; what read Investment (its encoder, its Gram
        # row, its block at the term rows, the partial sums) left with it
        assert service.stats()["caches"]["kernels"]["size"] == 1
        assert 0 < len(kernels) < entries
        misses = kernels.misses
        cold = HypeR(service.database, dataset.causal_dag, config)
        assert answer_fields(service.execute(sweep_query(dataset, 1.2, 30.0))) == answer_fields(
            cold.what_if(sweep_query(dataset, 1.2, 30.0))
        )
        # the masks, bases and term rows read Age and Credit: hits
        rebuilt = kernels.misses - misses
        assert 0 < rebuilt < entries
        # rows are positions: a commit to the key keeps the store; the plan reads
        # its Use key, so it refits, from memoised pieces but two new partial sums
        ids = list(service.database["Credit"].column("ID"))
        service.update_relation_columns({"Credit": {"ID": ids[::-1]}})
        assert service.stats()["caches"]["kernels"]["size"] == 1
        misses = kernels.misses
        again = sweep_query(dataset, 1.3, 30.0)
        assert answer_fields(service.execute(again)) == answer_fields(
            HypeR(service.database, dataset.causal_dag, config).what_if(again)
        )
        assert kernels.misses == misses + 2

    def test_estimators_over_one_view_do_not_share_design_blocks(self):
        # sample_size with random_state=None: every estimator trains on its own
        # rows, so its regressors' encoders (one-hot categories of Brand and
        # Category here) are its own too.  The second estimator below meets the
        # first one's blocks in the shared kernel cache, under the same
        # attribute and row set.
        amazon = make_amazon_syn(150, seed=4)
        config = EngineConfig(regressor="linear", sample_size=50, random_state=None)
        service = HypeRService(
            amazon.database, amazon.causal_dag, config, result_cache_size=0
        )
        text = (
            "USE Product WITH AVG(Review.Rating) AS Rtng UPDATE(Quality) = {c} * "
            "PRE(Quality) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'"
        )
        service.execute(text.format(c=1.1))
        (first,) = service.caches.estimators.values()
        (kernels,) = service.caches.kernels.values()
        entries = len(kernels)
        service.caches.estimators.clear()  # evicted; the kernel cache lives on
        query = service.parse(text.format(c=1.2))
        warm = service.execute(query)
        (second,) = service.caches.estimators.values()
        assert second is not first and second.backdoor_set == ("Brand", "Category")
        # the second estimator fits its own encoders, training blocks, Gram blocks
        # and their products with each target, and encodes its own blocks at the
        # term rows: nothing of the first's
        encoders = second._encoder.encoders
        assert all(encoders[a] is not first._encoder.encoders[a] for a in encoders)
        features = len(second.feature_attributes)
        training = 1 + features  # the ones and each attribute's block
        pairs = training * (training + 1) // 2
        # the count target is 1 on every row (the FOR reads no POST value) and
        # fits nothing: only the sum regressor adds Xᵀy products and a partial sum
        targets = 1
        assert len(kernels) == (
            entries + features + training + pairs + training * targets
            + len(second.backdoor_set) + targets
        )
        # the second estimator alone, with no kernel cache to share
        engine = WhatIfEngine(service.database, amazon.causal_dag, config)
        alone = engine.evaluate(query, prepared=engine.prepare(query), estimator=second)
        assert answer_fields(warm) == answer_fields(alone)


class TestProcessesExecution:
    @pytest.fixture(scope="class")
    def services(self, dataset):
        config = EngineConfig(regressor="linear")
        threads = HypeRService(dataset.database, dataset.causal_dag, config)
        processes = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        )
        yield threads, processes
        processes.close()

    def test_execute_matches_threads_bitwise(self, services, dataset):
        threads, processes = services
        for query in suite_20(dataset)[:8]:
            assert processes.execute(query).value == threads.execute(query).value

    def test_execute_many_matches_and_uses_one_broadcast(self, services, dataset):
        threads, processes = services
        queries = suite_20(dataset)[8:16]
        expected = [threads.execute(q).value for q in queries]
        before = processes.stats()["pool"]["n_broadcasts"] if processes.stats()["pool"] else 0
        results = processes.execute_many(queries)
        assert [r.value for r in results] == expected
        stats = processes.stats()
        assert stats["execution"] == "processes"
        assert stats["pool"]["n_shards"] == 2
        assert stats["pool"]["n_broadcasts"] == before + 1

    def test_update_database_moves_live_pool_forward_in_place(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        )
        try:
            query = suite_20(dataset)[0]
            before = service.execute(query).value
            pool = service._pool
            assert pool is not None
            relation = service.database["Credit"]
            credit = np.asarray(relation.column("Credit"), dtype=float)
            credit[::4] = 1.0 - credit[::4]
            changed = service.update_database(
                service.database.with_relation(relation.with_column("Credit", credit))
            )
            assert changed == {"Credit"}
            # the running workers were moved forward in place — same pool,
            # one update broadcast, no teardown/respawn
            assert service._pool is pool
            after = service.execute(query)
            cold = HypeR(service.database, dataset.causal_dag, config).what_if(query)
            assert after.value == cold.value
            assert after.value != before
            assert service.stats()["pool"]["n_updates"] == 1
        finally:
            service.close()

    def test_noop_commit_leaves_pool_and_generation_untouched(self, dataset):
        # regression: update_database used to close() the pool even when the
        # commit changed nothing, pausing every in-flight reader for a respawn
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        )
        try:
            query = suite_20(dataset)[1]
            value = service.execute(query).value
            pool = service._pool
            generation = service.generation
            changed = service.update_database(service.database)
            assert changed == frozenset()
            assert service._pool is pool
            assert service.generation == generation
            stats = service.stats()
            assert stats["versions"]["noop_commits"] == 1
            assert stats["pool"]["n_updates"] == 0
            assert service.execute(query).value == value
        finally:
            service.close()

    def test_rejects_unknown_execution_mode(self, dataset):
        with pytest.raises(Exception):
            HypeRService(dataset.database, dataset.causal_dag, execution="fibers")

    def test_how_to_over_an_immutable_attribute_fails_as_the_what_if_does(
        self, services, dataset
    ):
        threads, processes = services
        message = "cannot update immutable attribute 'Age'"
        how_to = HowToQuery(
            use=dataset.default_use, update_attributes=["Age"], objective_attribute="Credit"
        )
        what_if = candidate_what_if(how_to, [AttributeUpdate("Age", SetTo(30))])
        for query in (what_if, how_to):
            for service in (threads, processes):  # one envelope on every path
                with pytest.raises(QuerySemanticsError) as caught:
                    service.execute(query)
                assert envelope_for(caught.value) == (
                    400, ErrorEnvelope("query_semantics", message)
                )

    def test_two_shards_answer_as_threads_do(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        )
        try:
            queries = suite_20(dataset)[:3]
            sharded = [service.execute(query).value for query in queries]
            assert service.stats()["pool"]["n_shards"] == 2
            threads = HypeRService(dataset.database, dataset.causal_dag, config)
            assert sharded == [threads.execute(query).value for query in queries]
        finally:
            service.close()

    def test_prepare_accepts_a_list_of_queries(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        queries = suite_20(dataset)[:3]
        plans = service.prepare(queries)
        assert isinstance(plans, list) and len(plans) == 3
        for query, plan in zip(queries, plans):
            assert plan.fingerprint is not None
            assert service.execute(query).value is not None
        # a second warm-up round serves every plan from the warmed caches
        again = service.prepare(queries)
        for plan, repeat in zip(plans, again):
            assert repeat.estimator is plan.estimator


class TestInvalidation:
    def build_query(self, dataset) -> WhatIfQuery:
        return WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )

    def test_database_update_invalidates_cached_state(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        query = self.build_query(dataset)
        before = service.execute(query).value

        # Flip a third of the Credit outcomes: answers must change.
        relation = service.database[dataset.default_use.base_relation]
        credit = np.asarray(relation.column("Credit"), dtype=float)
        credit[:: 3] = 1.0 - credit[:: 3]
        updated = relation.with_column("Credit", credit)
        new_database = service.database.with_relation(updated)

        generation_before = service.generation
        service.update_database(new_database)
        assert service.generation == generation_before + 1
        assert service.stats()["caches"]["estimators"]["size"] == 0

        after = service.execute(query).value
        cold = HypeR(new_database, dataset.causal_dag, config).what_if(query).value
        assert after == cold
        assert after != before

    def test_explicit_invalidate_refits(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        query = self.build_query(dataset)
        first = service.execute(query).value
        service.invalidate()
        assert service.stats()["caches"]["views"]["size"] == 0
        assert service.execute(query).value == first  # same data -> same answer
        # two generations of fingerprints never collide
        assert service.stats()["caches"]["estimators"]["size"] == 1

    def test_dag_update_invalidates(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(dataset.database, dataset.causal_dag, config)
        query = self.build_query(dataset)
        with_dag = service.execute(query).value
        service.update_causal_dag(None)
        without_dag = service.execute(query).value
        cold = HypeR(dataset.database, None, config).what_if(query).value
        assert without_dag == cold
        assert service.generation == 1
        assert isinstance(with_dag, float)


class TestServingCounters:
    """The serving instrumentation consumed by front-end admission control."""

    def build_query(self, dataset, factor: float = 1.1) -> WhatIfQuery:
        return WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", MultiplyBy(factor))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )

    def test_execute_updates_inflight_peak_and_latency(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        service.execute(self.build_query(dataset))
        signals = service.serving_signals()
        assert signals["in_flight"] == 0  # nothing left executing
        assert signals["peak_in_flight"] >= 1
        assert signals["latency"]["query"]["count"] == 1
        assert signals["latency"]["query"]["seconds"] > 0.0
        assert signals["rejected_total"] == 0
        assert signals["capacity_hint"] >= 1
        # the same block is embedded in stats()
        assert service.stats()["serving"]["peak_in_flight"] >= 1

    def test_concurrent_executions_raise_peak(self, dataset):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            EngineConfig(regressor="linear"),
            max_workers=4,
        )
        queries = [self.build_query(dataset, 1.0 + 0.01 * i) for i in range(8)]
        service.execute_many(queries)
        signals = service.serving_signals()
        assert signals["in_flight"] == 0
        assert signals["peak_in_flight"] >= 1
        assert signals["latency"]["query"]["count"] == 8
        assert signals["latency"]["batch"]["count"] == 1

    def test_record_rejection_accumulates_per_endpoint(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        service.record_rejection("query")
        service.record_rejection("batch", units=3)
        signals = service.serving_signals()
        assert signals["rejected_total"] == 4
        assert signals["rejected"] == {"query": 1, "batch": 3}
        assert service.stats()["serving"]["rejected_total"] == 4

    def test_processes_mode_counts_pool_crossings(self, dataset):
        config = EngineConfig(regressor="linear")
        with HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        ) as service:
            queries = [self.build_query(dataset, 1.0 + 0.01 * i) for i in range(3)]
            service.execute_many(queries)
            signals = service.serving_signals()
        assert signals["in_flight"] == 0
        assert signals["latency"]["shard_batch"]["count"] == 1
        assert signals["peak_in_flight"] >= 3  # the 3 misses crossed together
