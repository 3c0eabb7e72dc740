"""Shard-merge exactness: ``merge(shards(Q)) == unsharded(Q)`` — bitwise.

Property-style sweep over what-if and how-to queries, 1/2/4 shards, plus the
single-block edge case and the Indep / forest-regressor variants.  Equality is asserted with ``==`` on floats (no
tolerance): the shard protocol fits every estimator on the full training
snapshot, predictions are row-stable, and the merge scatters per-row
contributions back into view order before reducing, so any drift at all is a
protocol bug.
"""

from __future__ import annotations

import pytest

from repro import (
    CausalDAG,
    CausalEdge,
    Database,
    EngineConfig,
    HowToEngine,
    HowToQuery,
    HypeR,
    HypeRService,
    LimitConstraint,
    Relation,
    UseSpec,
    WhatIfQuery,
)
from repro.core.updates import AttributeUpdate, MultiplyBy, SetTo
from repro.datasets import make_german_syn
from repro.relational import post, pre
from repro.shard import ShardPool, merge_what_if, partition_database, what_if_partial


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(240, seed=3)


def what_if_suite(dataset) -> list[WhatIfQuery]:
    """Count/sum/avg aggregates, scoped updates, multi-disjunct For clauses."""
    use = dataset.default_use
    return [
        WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Status", MultiplyBy(1.2))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        ),
        WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Savings", SetTo(3))],
            output_attribute="CreditAmount",
            output_aggregate="avg",
            when=pre("Age") >= 30,
            for_clause=(post("Credit") == 1),
        ),
        WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Housing", MultiplyBy(0.9))],
            output_attribute="CreditAmount",
            output_aggregate="sum",
            for_clause=(post("CreditAmount") >= 2000.0),
        ),
        WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("Status", SetTo(2))],
            output_attribute="Credit",
            output_aggregate="count",
            when=pre("Sex") == 1,
            # two disjuncts: exercises the inclusion–exclusion subsets
            for_clause=(post("Credit") == 1) | (post("CreditAmount") >= 4000.0),
        ),
    ]


def sharded_what_if(dataset, config, query, n_shards):
    plan = partition_database(dataset.database, dataset.causal_dag, n_shards)
    service = HypeRService(dataset.database, dataset.causal_dag, config)
    partials = [what_if_partial(service, shard, query) for shard in plan]
    return merge_what_if(query, partials), partials


def assert_results_identical(sharded, unsharded):
    assert sharded.value == unsharded.value
    assert sharded.expected_qualifying_count == unsharded.expected_qualifying_count
    assert sharded.aggregate == unsharded.aggregate
    assert sharded.n_view_tuples == unsharded.n_view_tuples
    assert sharded.n_scope_tuples == unsharded.n_scope_tuples
    assert sharded.n_blocks == unsharded.n_blocks
    assert sharded.backdoor_set == unsharded.backdoor_set
    assert sharded.variant == unsharded.variant
    assert sharded.block_contributions == unsharded.block_contributions
    assert sharded.metadata == unsharded.metadata


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestWhatIfExactness:
    def test_suite_bitwise_equal(self, dataset, n_shards):
        config = EngineConfig(regressor="linear")
        session = HypeR(dataset.database, dataset.causal_dag, config)
        for query in what_if_suite(dataset):
            unsharded = session.what_if(query)
            sharded, _ = sharded_what_if(dataset, config, query, n_shards)
            assert_results_identical(sharded, unsharded)


class TestWhatIfVariants:
    def test_forest_regressor_bitwise_equal(self, dataset):
        config = EngineConfig(regressor="forest", n_forest_trees=4, max_tree_depth=4)
        query = what_if_suite(dataset)[0]
        unsharded = HypeR(dataset.database, dataset.causal_dag, config).what_if(query)
        sharded, _ = sharded_what_if(dataset, config, query, 3)
        assert_results_identical(sharded, unsharded)

    def test_indep_variant_bitwise_equal(self, dataset):
        config = EngineConfig(regressor="linear", variant="indep")
        for query in what_if_suite(dataset)[:2]:
            unsharded = HypeR(dataset.database, dataset.causal_dag, config).what_if(query)
            sharded, _ = sharded_what_if(dataset, config, query, 2)
            assert_results_identical(sharded, unsharded)

    def test_sampled_variant_bitwise_equal(self, dataset):
        config = EngineConfig(regressor="linear", variant="hyper-sampled", sample_size=120)
        query = what_if_suite(dataset)[0]
        unsharded = HypeR(dataset.database, dataset.causal_dag, config).what_if(query)
        sharded, _ = sharded_what_if(dataset, config, query, 4)
        assert_results_identical(sharded, unsharded)

    def test_merge_is_order_independent(self, dataset):
        config = EngineConfig(regressor="linear")
        query = what_if_suite(dataset)[1]
        _, partials = sharded_what_if(dataset, config, query, 4)
        # the full plan's term rows ride on shard 0 only, and every fold keeps them
        assert [p.term_rows is not None for p in partials] == [True, False, False, False]
        assert partials[3].merge(partials[0]).term_rows is partials[0].term_rows
        forward = merge_what_if(query, partials)
        backward = merge_what_if(query, list(reversed(partials)))
        # associativity under a different fold order
        left = partials[0].merge(partials[1])
        right = partials[2].merge(partials[3])
        tree = merge_what_if(query, [left.merge(right)])
        assert forward.value == backward.value == tree.value
        assert (
            forward.expected_qualifying_count
            == backward.expected_qualifying_count
            == tree.expected_qualifying_count
        )


def how_to_suite(dataset) -> list[HowToQuery]:
    use = dataset.default_use
    return [
        HowToQuery(
            use=use,
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
        ),
        HowToQuery(
            use=use,
            update_attributes=["Savings"],
            objective_attribute="CreditAmount",
            objective_aggregate="avg",
            when=pre("Age") >= 28,
            for_clause=(post("Credit") == 1),
            limits=[LimitConstraint("Savings", lower=1.0, upper=4.0)],
            candidate_buckets=3,
            candidate_multipliers=(1.2,),
            max_updates=1,
        ),
    ]


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestHowToExactness:
    def test_suite_bitwise_equal(self, dataset, n_shards):
        config = EngineConfig(regressor="linear")
        engine = HowToEngine(dataset.database, dataset.causal_dag, config)
        plan = partition_database(dataset.database, dataset.causal_dag, n_shards)
        pool = ShardPool(plan, dataset.causal_dag, config, inline=True).start()
        try:
            for query in how_to_suite(dataset):
                unsharded = engine.evaluate(query)
                sharded = pool.run_batch([query])[0]
                assert sharded.objective_value == unsharded.objective_value
                assert sharded.baseline_value == unsharded.baseline_value
                assert sharded.verified_value == unsharded.verified_value
                assert sharded.plan() == unsharded.plan()
                assert sharded.n_candidates == unsharded.n_candidates
                assert sharded.solver_status == unsharded.solver_status
                assert sharded.n_ip_variables == unsharded.n_ip_variables
        finally:
            pool.close()


class TestSingleBlockEdgeCase:
    """A cross-tuple edge without grouping collapses everything into one block."""

    def build(self):
        n = 40
        relation = Relation.from_columns(
            "R",
            {
                "ID": list(range(n)),
                "X": [float(i % 5) for i in range(n)],
                "Y": [float((i * 3) % 7) for i in range(n)],
                "Z": [float(i % 2) for i in range(n)],
            },
            key=["ID"],
        )
        dag = CausalDAG(["X", "Y", "Z"])
        dag.add_edge(CausalEdge("X", "Y"))
        dag.add_edge(CausalEdge("Y", "Z", cross_tuple=True))
        return Database([relation]), dag

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_single_block_bitwise_equal(self, n_shards):
        database, dag = self.build()
        config = EngineConfig(regressor="linear")
        query = WhatIfQuery(
            use=UseSpec(base_relation="R"),
            updates=[AttributeUpdate("X", MultiplyBy(1.5))],
            output_attribute="Z",
            output_aggregate="count",
            for_clause=(post("Z") == 1.0),
        )
        unsharded = HypeR(database, dag, config).what_if(query)
        assert unsharded.n_blocks == 1
        plan = partition_database(database, dag, n_shards)
        service = HypeRService(database, dag, config)
        sharded = merge_what_if(
            query, [what_if_partial(service, shard, query) for shard in plan]
        )
        assert_results_identical(sharded, unsharded)
