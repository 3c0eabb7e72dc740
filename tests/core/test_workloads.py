"""Tests for the random query workload generator."""

import pytest

from repro import EngineConfig, HypeR
from repro.core.queries import HowToQuery, WhatIfQuery
from repro.exceptions import HypeRError
from repro.relational.expressions import Temporal
from repro.workloads import WorkloadGenerator

from .oracles import what_if_template_batch


@pytest.fixture(scope="module")
def generator():
    from repro.datasets import make_german_syn

    dataset = make_german_syn(300, seed=13)
    return dataset, WorkloadGenerator.for_dataset(dataset, output_attribute="Credit", seed=1)


class TestConstruction:
    def test_for_dataset_infers_update_candidates(self, generator):
        _, gen = generator
        assert "Status" in gen.update_candidates
        assert "Credit" not in gen.update_candidates  # the output is never updated
        assert "ID" not in gen.update_candidates  # keys are immutable

    def test_unknown_output_attribute(self, generator):
        dataset, _ = generator
        with pytest.raises(HypeRError):
            WorkloadGenerator.for_dataset(dataset, output_attribute="Nope")

    def test_unknown_update_candidates(self, generator):
        dataset, _ = generator
        with pytest.raises(HypeRError):
            WorkloadGenerator.for_dataset(
                dataset, output_attribute="Credit", update_candidates=["Missing"]
            )


class TestWhatIfGeneration:
    def test_queries_are_valid_and_varied(self, generator):
        _, gen = generator
        batch = gen.what_if_batch(8)
        assert all(isinstance(q, WhatIfQuery) for q in batch)
        attributes = {q.update_attributes[0] for q in batch}
        assert len(attributes) >= 2  # the generator varies the treatment
        aggregates = {q.output_aggregate for q in batch}
        assert aggregates <= {"avg", "sum", "count"}

    def test_reproducible_given_seed(self, generator):
        dataset, _ = generator
        a = WorkloadGenerator.for_dataset(dataset, "Credit", seed=7).what_if_batch(5)
        b = WorkloadGenerator.for_dataset(dataset, "Credit", seed=7).what_if_batch(5)
        assert [q.describe() for q in a] == [q.describe() for q in b]

    def test_when_selectivity_and_post_condition(self, generator):
        _, gen = generator
        query = gen.what_if(when_selectivity=0.5, with_post_condition=True)
        assert query.when is not None
        pre_side = (Temporal.PRE, Temporal.DEFAULT)
        assert any(t in pre_side for _, t in query.when.referenced_attributes())
        assert query.for_clause.uses_post()

    def test_generated_queries_execute(self, generator):
        dataset, gen = generator
        session = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        for query in gen.what_if_batch(3, aggregate="count", with_post_condition=True):
            result = session.what_if(query)
            assert 0.0 <= result.value <= len(dataset.database["Credit"])


class TestTemplateBatch:
    def test_template_batch_shares_one_plan(self, generator):
        _, gen = generator
        from repro.core.updates import MultiplyBy
        from repro.service import fingerprint_query
        from repro import EngineConfig

        queries = what_if_template_batch(gen, 8, with_post_condition=True)
        assert len(queries) == 8
        config = EngineConfig(regressor="linear")
        fingerprints = [fingerprint_query(q, config) for q in queries]
        assert len({fp.plan_key for fp in fingerprints}) == 1
        assert len({fp.parameter_key for fp in fingerprints}) == 8
        factors = [q.updates[0].function for q in queries]
        assert all(isinstance(f, MultiplyBy) for f in factors)
        assert factors[0].factor < factors[-1].factor

    def test_template_batch_executes(self, generator):
        dataset, gen = generator
        session = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        service = session.service()
        queries = what_if_template_batch(gen, 4, aggregate="count")
        results = service.execute_many(queries, max_workers=2)
        assert len(results) == 4
        assert service.stats()["caches"]["estimators"]["size"] == 1


class TestHowToGeneration:
    def test_howto_queries_are_valid(self, generator):
        _, gen = generator
        query = gen.how_to(n_attributes=2)
        assert isinstance(query, HowToQuery)
        assert len(query.update_attributes) == 2
        assert all(limit.lower is not None for limit in query.limits)

    def test_requested_width_clamped(self, generator):
        _, gen = generator
        query = gen.how_to(n_attributes=50)
        assert len(query.update_attributes) <= len(gen.update_candidates)

    def test_a_repeated_candidate_counts_once(self, generator):
        dataset, _ = generator
        gen = WorkloadGenerator.for_dataset(
            dataset, "Credit", update_candidates=["Status", "Status"], seed=3
        )
        assert gen.update_candidates == ["Status"]
        assert list(gen.how_to(n_attributes=2).update_attributes) == ["Status"]

    def test_generated_howto_executes(self, generator):
        dataset, gen = generator
        session = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        query = gen.how_to(n_attributes=1, aggregate="count")
        result = session.how_to(query)
        assert result.objective_value >= result.baseline_value - 1e-6
