"""Tests for the structural causal model (sampling + interventions)."""

import numpy as np
import pytest

from repro.causal import (
    CausalDAG,
    ExogenousDistribution,
    GaussianNoise,
    LinearEquation,
    NoNoise,
    StructuralCausalModel,
)
from repro.exceptions import CausalModelError


def expected_outcome_under_intervention(scm, columns, interventions, outcome, rng, n_repeats=20):
    """Monte-Carlo estimate of ``E[outcome(post-update world)]``: the structural
    equations re-evaluated ``n_repeats`` times with fresh noise, the outcome
    functional averaged (the ground-truth oracle of the accuracy checks)."""
    if n_repeats <= 0:
        raise CausalModelError("n_repeats must be positive")
    total = 0.0
    for _ in range(n_repeats):
        post = scm.intervene(columns, interventions, rng)
        total += float(outcome(post))
    return total / n_repeats


@pytest.fixture
def linear_scm():
    """X -> M -> Y with known linear effects (no noise on M, small noise on Y)."""
    dag = CausalDAG(nodes=["X", "M", "Y"], edges=[("X", "M"), ("M", "Y")])
    equations = {
        "M": LinearEquation(weights={"X": 2.0}, intercept=1.0, noise=NoNoise()),
        "Y": LinearEquation(weights={"M": 3.0}, intercept=0.0, noise=GaussianNoise(0.01)),
    }
    exogenous = {"X": ExogenousDistribution("uniform", {"low": 0.0, "high": 1.0})}
    return StructuralCausalModel(dag=dag, equations=equations, exogenous=exogenous)


class TestValidation:
    def test_missing_equation_for_non_root(self):
        dag = CausalDAG(nodes=["X", "Y"], edges=[("X", "Y")])
        with pytest.raises(CausalModelError, match="no structural equation"):
            StructuralCausalModel(
                dag=dag,
                equations={},
                exogenous={"X": ExogenousDistribution("normal")},
            )

    def test_parent_mismatch_detected(self):
        dag = CausalDAG(nodes=["X", "Z", "Y"], edges=[("X", "Y"), ("Z", "Y")])
        with pytest.raises(CausalModelError, match="parents"):
            StructuralCausalModel(
                dag=dag,
                equations={"Y": LinearEquation(weights={"X": 1.0})},
                exogenous={
                    "X": ExogenousDistribution("normal"),
                    "Z": ExogenousDistribution("normal"),
                },
            )

    def test_missing_root_distribution(self):
        dag = CausalDAG(nodes=["X", "Y"], edges=[("X", "Y")])
        with pytest.raises(CausalModelError, match="exogenous"):
            StructuralCausalModel(
                dag=dag, equations={"Y": LinearEquation(weights={"X": 1.0})}, exogenous={}
            )


class TestSampling:
    def test_sample_respects_structural_equations(self, linear_scm):
        columns = linear_scm.sample(500, np.random.default_rng(0))
        x = np.asarray(columns["X"], dtype=float)
        m = np.asarray(columns["M"], dtype=float)
        y = np.asarray(columns["Y"], dtype=float)
        assert np.allclose(m, 2 * x + 1)
        assert np.allclose(y, 3 * m, atol=0.1)

    def test_sample_sizes(self, linear_scm):
        columns = linear_scm.sample(17, np.random.default_rng(1))
        assert all(len(v) == 17 for v in columns.values())


class TestIntervention:
    def test_do_overrides_and_propagates(self, linear_scm):
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(200, rng)
        post = linear_scm.intervene(observed, {"M": 10.0}, rng)
        assert np.allclose(np.asarray(post["M"], dtype=float), 10.0)
        assert np.allclose(np.asarray(post["Y"], dtype=float), 30.0, atol=0.1)
        # non-descendants keep their observed values
        assert np.array_equal(
            np.asarray(post["X"], dtype=float), np.asarray(observed["X"], dtype=float)
        )

    def test_do_cuts_the_incoming_edges(self, linear_scm):
        # intervening on X and M together: M ignores its cause X, Y follows M
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(100, rng)
        post = linear_scm.intervene(observed, {"X": 5.0, "M": -1.0}, rng)
        assert np.allclose(np.asarray(post["X"], dtype=float), 5.0)
        assert np.allclose(np.asarray(post["M"], dtype=float), -1.0)
        assert np.allclose(np.asarray(post["Y"], dtype=float), -3.0, atol=0.1)

    def test_functional_intervention(self, linear_scm):
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(50, rng)
        post = linear_scm.intervene(observed, {"X": lambda v: v + 1.0}, rng)
        x_pre = np.asarray(observed["X"], dtype=float)
        x_post = np.asarray(post["X"], dtype=float)
        assert np.allclose(x_post, x_pre + 1.0)
        assert np.allclose(np.asarray(post["M"], dtype=float), 2 * x_post + 1)

    def test_array_intervention_checks_length(self, linear_scm):
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(10, rng)
        with pytest.raises(CausalModelError):
            linear_scm.intervene(observed, {"X": [1.0, 2.0]}, rng)

    def test_unknown_attribute_rejected(self, linear_scm):
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(5, rng)
        with pytest.raises(CausalModelError):
            linear_scm.intervene(observed, {"Q": 1.0}, rng)

    def test_mismatched_column_lengths_rejected(self, linear_scm):
        with pytest.raises(CausalModelError):
            linear_scm.intervene({"X": [1.0], "M": [1.0, 2.0], "Y": [1.0]}, {"X": 0.0}, np.random.default_rng(0))

    def test_expected_outcome_under_intervention(self, linear_scm):
        rng = np.random.default_rng(0)
        observed = linear_scm.sample(100, rng)
        value = expected_outcome_under_intervention(
            linear_scm,
            observed,
            {"M": 5.0},
            outcome=lambda cols: float(np.mean(np.asarray(cols["Y"], dtype=float))),
            rng=rng,
            n_repeats=5,
        )
        assert value == pytest.approx(15.0, abs=0.2)

    def test_expected_outcome_invalid_repeats(self, linear_scm):
        with pytest.raises(CausalModelError):
            expected_outcome_under_intervention(
                linear_scm,
                {"X": [1.0], "M": [3.0], "Y": [9.0]},
                {"M": 1.0},
                outcome=lambda cols: 0.0,
                rng=np.random.default_rng(0),
                n_repeats=0,
            )
