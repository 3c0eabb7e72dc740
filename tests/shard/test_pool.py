"""ShardPool behaviour: real worker processes, batches, failures, fallback."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    EngineConfig,
    HowToQuery,
    HypeR,
    HypeRService,
    LimitConstraint,
    WhatIfQuery,
)
from repro.api.core import envelope_for
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn
from repro.exceptions import QuerySemanticsError
from repro.lang import parse_query
from repro.relational import Database, Relation, post
from repro.shard import ShardPool, ShardPoolError, partition_database


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=7)


@pytest.fixture(scope="module")
def config():
    return EngineConfig(regressor="linear")


def make_queries(dataset, n=6) -> list[WhatIfQuery]:
    return [
        WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.05 * i))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def pool(dataset, config):
    plan = partition_database(dataset.database, dataset.causal_dag, 3)
    pool = ShardPool(plan, dataset.causal_dag, config).start()
    yield pool
    pool.close()


class TestProcessPool:
    def test_worker_processes_match_unsharded_bitwise(self, dataset, config, pool):
        session = HypeR(dataset.database, dataset.causal_dag, config)
        for query in make_queries(dataset, 3):
            assert pool.run_batch([query])[0].value == session.what_if(query).value

    def test_pool_is_persistent_across_batches(self, dataset, pool):
        queries = make_queries(dataset, 4)
        before = pool.n_broadcasts
        first = pool.run_batch(queries)
        second = pool.run_batch(queries)
        assert [r.value for r in first] == [r.value for r in second]
        assert pool.n_broadcasts == before + 2
        assert pool.stats()["mode"] in ("processes", "inline")

    def test_how_to_through_processes(self, dataset, config, pool):
        query = HowToQuery(
            use=dataset.default_use,
            update_attributes=["Status"],
            objective_attribute="Credit",
            objective_aggregate="count",
            for_clause=(post("Credit") == 1),
            limits=[LimitConstraint("Status", lower=1.0, upper=4.0)],
            candidate_buckets=3,
            candidate_multipliers=(),
        )
        session = HypeR(dataset.database, dataset.causal_dag, config)
        unsharded = session.how_to(query)
        sharded = pool.run_batch([query])[0]
        assert sharded.objective_value == unsharded.objective_value
        assert sharded.plan() == unsharded.plan()
        assert sharded.verified_value == unsharded.verified_value
        # exhaustive Opt-HowTo runs unsharded on one worker
        exhaustive = pool.run_batch([query], exhaustive=True)[0]
        assert exhaustive.objective_value == session.how_to(query, exhaustive=True).objective_value

    @pytest.fixture
    def bad(self, dataset):
        return WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", MultiplyBy(1.1))],
            output_attribute="NoSuchColumn",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )

    @pytest.fixture
    def rejection(self, dataset, config, bad):
        """What the unsharded engine says about ``bad``."""
        with pytest.raises(QuerySemanticsError) as caught:
            HypeR(dataset.database, dataset.causal_dag, config).what_if(bad)
        return caught.value

    # the rule: a worker's QuerySemanticsError / QuerySyntaxError crosses the
    # pool as itself — same class, message and envelope, no traceback in it;
    # any other worker failure stays a ShardPoolError

    @staticmethod
    def assert_same_rejection(error, rejection):
        assert type(error) is QuerySemanticsError
        assert str(error) == str(rejection) and "Traceback" not in str(error)
        assert envelope_for(error) == envelope_for(rejection)

    def test_batch_captures_per_query_errors(self, dataset, pool, bad, rejection):
        queries = [*make_queries(dataset, 2), bad]
        results = pool.run_batch(queries, return_errors=True)
        assert all(not isinstance(r, Exception) for r in results[:2])
        self.assert_same_rejection(results[2], rejection)
        with pytest.raises(QuerySemanticsError) as caught:
            pool.run_batch([bad])
        self.assert_same_rejection(caught.value, rejection)

    def test_single_query_error_propagates(self, dataset, pool, bad, rejection):
        with pytest.raises(QuerySemanticsError) as caught:
            pool.run_batch([bad])[0]
        self.assert_same_rejection(caught.value, rejection)
        # the pool survives worker-side failures
        good = make_queries(dataset, 1)[0]
        assert pool.run_batch([good])[0] is not None

    def test_any_other_worker_failure_stays_a_pool_error(self, dataset, pool):
        with pytest.raises(ShardPoolError, match="unknown shard task kind") as caught:
            pool._scatter("no-such-kind", {0: None})
        assert "Traceback" in str(caught.value)  # the worker's, for the operator
        assert pool.run_batch([make_queries(dataset, 1)[0]])[0] is not None


class TestInlineFallback:
    def test_forced_inline_mode_matches(self, dataset, config):
        plan = partition_database(dataset.database, dataset.causal_dag, 2)
        pool = ShardPool(plan, dataset.causal_dag, config, inline=True).start()
        try:
            assert pool.mode == "inline"
            assert pool.stats()["fallback_reason"] == "requested"
            session = HypeR(dataset.database, dataset.causal_dag, config)
            query = make_queries(dataset, 1)[0]
            assert pool.run_batch([query])[0].value == session.what_if(query).value
        finally:
            pool.close()

    def test_a_failed_query_names_the_worker_that_ran_it(self, dataset, config):
        pool = ShardPool(
            dataset.database, dataset.causal_dag, config, n_shards=2, inline=True
        ).start()
        try:

            def fail(*_args, **_kwargs):
                raise RuntimeError("injected")

            # every what-if group worker 1 evaluates fails where it takes its plan
            pool._inline_workers[1].service.compiler.what_if_plan = fail
            results = pool.run_batch(template_batch(4), return_errors=True)
            failed = [result for result in results if isinstance(result, Exception)]
            assert 0 < len(failed) < len(results)  # the four plans span both workers
            for error in failed:
                assert isinstance(error, ShardPoolError)
                assert str(error).startswith("shard worker 1 failed with RuntimeError: injected")
        finally:
            pool.close()

    def test_closed_pool_refuses_work(self, dataset, config):
        plan = partition_database(dataset.database, dataset.causal_dag, 2)
        pool = ShardPool(plan, dataset.causal_dag, config, inline=True).start()
        pool.close()
        with pytest.raises(ShardPoolError):
            pool.run_batch([make_queries(dataset, 1)[0]])[0]
        pool.close()  # idempotent


TEMPLATES = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "USE Credit UPDATE(Investment) = {c} * PRE(Investment) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
)
SCALARS = (
    "value", "aggregate", "expected_qualifying_count", "n_view_tuples",
    "n_scope_tuples", "n_blocks", "backdoor_set", "variant", "metadata",
)


def template_batch(n: int, offset: int = 0) -> list[WhatIfQuery]:
    return [
        parse_query(TEMPLATES[i % len(TEMPLATES)].format(c=round(0.6 + 0.01 * (offset + i), 6)))
        for i in range(n)
    ]


def scalars(result) -> tuple:
    return tuple(getattr(result, name) for name in SCALARS)


class TestAnswersAndCommitsShipWhatChanged:
    """8 000 rows: an answer crosses the pipe as scalars, a commit as its columns."""

    @pytest.fixture(scope="class")
    def big(self):
        return make_german_syn(8000, seed=5)

    def test_batch_answers_are_scalars_in_both_modes(self, big, config):
        plan = partition_database(big.database, big.causal_dag, 2)
        processes = ShardPool(plan, big.causal_dag, config).start()
        inline = ShardPool(plan, big.causal_dag, config, inline=True).start()
        try:
            if processes.mode != "processes":
                pytest.skip(f"no worker processes: {processes.fallback_reason}")
            processes.run_batch(template_batch(4))  # fit the four plans
            queries = template_batch(16, offset=4)
            before = processes.bytes_from_workers
            answers = processes.run_batch(queries)
            assert processes.bytes_from_workers - before < 64 * 1024
            same = inline.run_batch(queries)
            assert [replace(r, runtime_seconds=0.0) for r in answers] == [
                replace(r, runtime_seconds=0.0) for r in same
            ]
            session = HypeR(big.database, big.causal_dag, config)
            for query, answer in zip(queries, answers):
                assert list(answer.block_contributions) == []
                assert scalars(answer) == scalars(session.what_if(query))
            # one query is dealt whole like a batch: scalars back, no summary
            single, cold = processes.run_batch([queries[0]])[0], session.what_if(queries[0])
            assert scalars(single) == scalars(cold) and cold.n_blocks > 1
            assert list(single.block_contributions) == []
        finally:
            processes.close()
            inline.close()

    def test_commit_payload_is_the_changed_column_whole(self, big, config):
        service = HypeRService(
            big.database, big.causal_dag, config,
            execution="processes", n_shards=2, result_cache_size=0,
        )
        try:
            service.start_pool()
            pool = service.stats()["pool"]
            if pool["mode"] != "processes" or pool["shm"] is None:
                pytest.skip("needs worker processes and shared memory")
            queries = template_batch(8)
            service.execute_many(queries)
            n_rows = len(big.database["Credit"])
            column_bytes = 8 * n_rows
            rng = np.random.default_rng(1)
            column = [float(v) for v in rng.integers(1, 6, n_rows)]

            def commit_and_check(values) -> int:
                service.update_relation_columns({"Credit": {"Investment": values}})
                cold = HypeR(service.database, big.causal_dag, config)
                for query, answer in zip(queries, service.execute_many(queries)):
                    assert scalars(answer) == scalars(cold.what_if(query))
                return service.stats()["pool"]["update_bytes_last"]

            # a whole-column overwrite: that column once (its shm segment
            # counted), not the ten-column relation once per worker
            assert column_bytes <= commit_and_check(column) <= 1.25 * column_bytes
            # ten rows: a changed column ships whole all the same
            column[:10] = [6.0 - v for v in column[:10]]
            assert column_bytes <= commit_and_check(column) <= 1.25 * column_bytes
        finally:
            service.close()


def _with_region(database: Database) -> Database:
    region = Relation.from_columns(
        "Region", {"RegionID": [1, 2, 3], "Population": [1.5, 2.5, 3.5]}, key=["RegionID"]
    )
    return Database([*database, region], foreign_keys=database.foreign_keys)


def _same(database: Database) -> Database:
    return database


#: case -> (the database the service starts from, the commit, a query that
#: reads what the commit added or None)
COMMITS = {
    "attribute added": (
        _same,
        lambda db: db.with_relation(
            db["Credit"].with_column("Extra", np.arange(len(db["Credit"])) % 4)
        ),
        "USE Credit UPDATE(Status) = 1.1 * PRE(Status) "
        "OUTPUT COUNT(POST(Credit)) FOR PRE(Extra) >= 2",
    ),
    "length changed": (_same, lambda db: db.with_relation(db["Credit"].head(150)), None),
    "relation added": (_same, _with_region, None),
    "relation dropped": (
        _with_region,
        lambda db: Database([db["Credit"]], foreign_keys=db.foreign_keys),
        None,
    ),
}


class TestCommitForms:
    """A commit ships each changed relation's schema, length and the columns
    the workers lack, whatever changed about it."""

    @pytest.mark.parametrize("case", list(COMMITS))
    def test_a_commit_answers_as_cold_hyper(self, dataset, config, case):
        start, commit, reading = COMMITS[case]
        service = HypeRService(
            start(dataset.database), dataset.causal_dag, config,
            execution="processes", n_shards=2, result_cache_size=0,
        )
        try:
            service.start_pool()
            queries = template_batch(4)
            service.execute_many(queries)  # the plans are fitted before the commit
            service.update_database(commit(service.database))
            if reading is not None:
                queries.append(parse_query(reading))
            cold = HypeR(service.database, dataset.causal_dag, config)
            for query, answer in zip(queries, service.execute_many(queries)):
                assert scalars(answer) == scalars(cold.what_if(query))
            assert service.stats()["pool"]["generation"] == 1
            if case == "attribute added":
                # the new column, not the relation (the row-patch form shipped
                # it pickled once per worker)
                relation = pickle.dumps(service.database["Credit"], pickle.HIGHEST_PROTOCOL)
                assert service.stats()["pool"]["update_bytes_last"] < len(relation)
        finally:
            service.close()
