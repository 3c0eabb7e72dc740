"""The engine, its learners and its causal models at their edges: an empty
qualifying set, a sum objective, limits over non-numbers, a one-column
design, a no-noise draw, and each refusal with the error that names it."""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, HypeR
from repro.causal.structural import LogisticEquation
from repro.core.queries import HowToQuery, LimitConstraint
from repro.core.updates import AddConstant, apply_update_column
from repro.datasets import make_adult_syn, make_german_syn
from repro.exceptions import CausalModelError, EstimationError, HypeRError, QuerySemanticsError
from repro.ml.discretize import Discretizer, equal_depth_edges
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.relational import UseSpec, post
from repro.workloads import WorkloadGenerator


@pytest.fixture(scope="module")
def german():
    return make_german_syn(300, seed=2)


@pytest.fixture(scope="module")
def engine(german):
    return HypeR(german.database, german.causal_dag, EngineConfig(regressor="linear"))


def test_an_average_over_no_qualifying_tuple_is_zero(engine):
    result = engine.execute(
        "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
        "TOMAXIMIZE AVG(POST(Credit)) FOR POST(Credit) = 99"
    )
    assert result.objective_value == 0.0


def test_a_sum_objective_and_a_budget_of_one_update(engine):
    text = (
        "USE Credit HOWTOUPDATE Status, Housing LIMIT 1 <= POST(Status) <= 4 "
        "TOMAXIMIZE SUM(POST(Credit)) FOR POST(Credit) = 1"
    )
    query = engine.parse(text)
    query.max_updates = 1
    exhaustive = engine.how_to(query, exhaustive=True)
    assert len(exhaustive.recommended_updates) <= 1
    assert exhaustive.objective_value >= engine.how_to(query).objective_value - 1e-9


def test_a_variant_copy_and_a_refused_object(engine):
    assert engine.with_variant("indep").config.variant == "indep"
    with pytest.raises(QuerySemanticsError, match="expected a query object or a fluent builder"):
        engine.execute(42)


def test_a_how_to_refuses_no_attribute_or_a_post_when():
    with pytest.raises(QuerySemanticsError, match="at least one HowToUpdate attribute"):
        HowToQuery(use=UseSpec("Credit"), update_attributes=[], objective_attribute="Credit")
    with pytest.raises(QuerySemanticsError, match="may only use Pre values"):
        HowToQuery(
            use=UseSpec("Credit"), update_attributes=["Status"], objective_attribute="Credit",
            when=post("Age") > 30,
        )


def test_a_limit_refuses_values_it_cannot_compare():
    l1 = LimitConstraint("Status", max_l1=1.0)
    assert not l1.admits("low", 2.0) and not l1.admits(2.0, "high")
    assert l1.admits(2.0, 2.5)


def test_an_added_constant_applies_only_in_scope():
    out = apply_update_column(AddConstant(1.0), np.array([1.0, 2.0]), [True, False])
    assert out.tolist() == [2.0, 2.0]


def test_block_contributions_slice_and_compare_as_a_list(engine):
    result = engine.execute("USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit))")
    contributions = result.block_contributions
    assert contributions[0:2] == list(contributions)[0:2]
    assert contributions != 3


# -- learners -----------------------------------------------------------------


def test_learners_take_one_column_and_refuse_mismatched_or_empty_data():
    forest = RandomForestRegressor(n_estimators=2, random_state=0).fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert forest.predict([1.0]).shape == (1,)
    for learner in (RandomForestRegressor(n_estimators=2), DecisionTreeRegressor()):
        with pytest.raises(EstimationError, match="mismatched lengths"):
            learner.fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(EstimationError, match="zero rows"):
            learner.fit(np.zeros((0, 1)), np.zeros(0))
    # a feature with no finite value offers no split
    features = np.column_stack([np.full(12, np.nan), np.arange(12.0)])
    tree = DecisionTreeRegressor(min_samples_split=2, min_samples_leaf=1).fit(features, np.arange(12.0))
    assert tree.predict(features[:1]).shape == (1,)


def test_a_discretizer_by_depth_and_its_refusal():
    assert Discretizer(n_buckets=2, strategy="depth").fit(np.arange(10.0)).edges.size == 3
    with pytest.raises(EstimationError, match="n_buckets must be positive"):
        equal_depth_edges([1.0], 0)
    with pytest.raises(EstimationError, match="has not been fitted"):
        Discretizer(n_buckets=2).bucket_centers()


# -- causal models and data ------------------------------------------------------


def test_a_logistic_equation_draws_from_its_noise_or_its_threshold():
    equation = LogisticEquation(weights={"A": 10.0}, labels=("no", "yes"))
    parents = {"A": np.array([-1.0, 1.0])}
    assert equation.compute(parents, np.zeros(2)).tolist() == ["no", "yes"]
    assert equation.compute(parents, np.array([0.5, 0.999])).tolist() == ["no", "yes"]
    assert LogisticEquation().compute({}, np.zeros(1)).tolist() == [0]


def test_extra_noise_attributes_are_columns_of_their_own():
    dataset = make_adult_syn(20, seed=1, extra_noise_attributes=1)
    assert "Noise0" in dataset.database["Adult"].attribute_names


def test_a_workload_needs_usable_attributes(german):
    use = UseSpec("Credit")
    with pytest.raises(HypeRError, match="not a view column"):
        WorkloadGenerator(german.database, use, "Nope")
    with pytest.raises(HypeRError, match="are not view columns"):
        WorkloadGenerator(german.database, use, "Credit", update_candidates=["Nope"])
    with pytest.raises(HypeRError, match="no usable update attributes"):
        WorkloadGenerator(german.database, use, "Credit", update_candidates=[])


def test_an_intervention_needs_its_columns(german):
    scm = german.view_scm
    rng = np.random.default_rng(0)
    columns = {name: german.database["Credit"].column(name) for name in scm.dag.nodes}
    with pytest.raises(CausalModelError, match="observed data is missing attribute"):
        scm.intervene({k: v for k, v in columns.items() if k != "Age"}, {"Status": 1.0}, rng)
    with pytest.raises(CausalModelError, match="functional intervention needs the observed column"):
        scm.intervene({k: v for k, v in columns.items() if k != "Status"},
                      {"Status": lambda value: value + 1}, rng)


def test_numpy_scalars_count_as_their_python_values():
    from repro.ml.density import FrequencyTable

    table = FrequencyTable.fit({"A": np.array([1, 1, 2]), "B": np.array([0.5, 0.5, 1.5])})
    assert table.probability({"A": 1}, {"B": np.float64(0.5)}) == 1.0


def test_an_encoder_of_no_category_gives_no_column():
    from repro.ml.encoding import ColumnEncoder

    assert ColumnEncoder("C", numeric=False, categories=()).transform(["x", None]).shape == (2, 0)


def test_an_object_output_column_converts_value_by_value():
    from repro.core.whatif import numeric_output_column
    from repro.relational import Relation

    relation = Relation.from_columns("R", {"K": [1, 2, 3], "Y": ["1.5", None, "2"]}, key=("K",))
    assert numeric_output_column(relation, "Y").tolist() == [1.5, 0.0, 2.0]


def test_a_sampled_engine_without_a_size_trains_on_every_row(german):
    sampled = HypeR(german.database, german.causal_dag,
                    EngineConfig(regressor="linear", variant="hyper-sampled"))
    full = HypeR(german.database, german.causal_dag, EngineConfig(regressor="linear"))
    text = "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"
    assert sampled.execute(text).value == pytest.approx(full.execute(text).value)



def test_a_workload_over_an_empty_column_keeps_every_tuple():
    from repro import Database
    from repro.core.updates import MultiplyBy
    from repro.relational import TRUE, AttributeSpec, NumericDomain, Relation, RelationSchema

    schema = RelationSchema(
        "W", [AttributeSpec(name, NumericDomain()) for name in ("K", "X", "Y")], key=("K",)
    )
    relation = Relation.from_rows(
        schema, [{"K": k, "X": None, "Y": float(k)} for k in (1, 2)]
    )
    generator = WorkloadGenerator(
        Database([relation]), UseSpec("W"), "Y", update_candidates=["X"]
    )
    query = generator.what_if(when_selectivity=0.5)
    assert query.when is TRUE and query.updates[0].function == MultiplyBy(1.1)


def test_a_function_without_a_vectorized_form_applies_value_by_value():
    from repro.core.updates import UpdateFunction

    class Negate(UpdateFunction):
        def apply(self, value):
            return -value

    out = apply_update_column(Negate(), np.array([1.0, 2.0]), [True, False])
    assert list(out) == [-1.0, 2.0]


def test_a_constant_attribute_offers_a_unit_range_of_candidates():
    from repro import Database
    from repro.relational import Relation

    relation = Relation.from_columns(
        "C", {"K": list(range(6)), "X": [2.0] * 6, "Y": [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]}, key=("K",)
    )
    engine = HypeR(Database([relation]), None, EngineConfig(regressor="linear"))
    result = engine.execute("USE C HOWTOUPDATE X TOMAXIMIZE AVG(POST(Y))")
    assert result.objective_value >= 0.0


def test_an_attribute_outside_the_dag_may_be_updated_with_any_other():
    dataset = make_adult_syn(200, seed=1, extra_noise_attributes=1)
    engine = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
    result = engine.execute(
        "USE Adult UPDATE(Noise0) = 1 AND UPDATE(HoursPerWeek) = 40 OUTPUT AVG(POST(Income))"
    )
    assert result.value >= 0.0  # answered, not refused as causally connected


def test_a_forest_shares_no_solver_state():
    from repro.ml.density import ConditionalMeanRegressor

    regressor = ConditionalMeanRegressor(feature_attributes=("A",), regressor_kind="forest")
    assert regressor.factorise(np.zeros((3, 1))) is None
