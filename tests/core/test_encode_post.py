"""The kernel writes each variant's post values straight into its encoded block.

:func:`repro.core.whatif.encode_post` applies every variant's update function
to the pre values *into* its slice of the ``(k, rows, width)`` block (the
``out=`` of ``UpdateFunction.apply_vectorized``) and fills NaN once per
block.  Its reference is the per-variant path it replaced: each variant's post
array built on its own, then encoded alone (``per_variant`` below).  Blocks
and answers must be bitwise that path's, for every function form, NaN pre
values, a how-to's baseline, a one-hot update attribute and a function with no
vectorized form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import pytest

from repro import EngineConfig, HypeR
from repro.core import whatif as whatif_module
from repro.core.results import HowToResult
from repro.core.updates import (
    AddConstant,
    AttributeUpdate,
    MultiplyBy,
    SetTo,
    UpdateFunction,
    apply_update_column,
)
from repro.core.whatif import encode_post
from repro.datasets import make_german_syn
from repro.lang import parse_query
from repro.ml.encoding import ColumnEncoder
from repro.relational import Database
from repro.service.state import with_columns

from .linear_fixture import make_linear_dataset

CONFIG = EngineConfig(regressor="linear", random_state=0)


@dataclass(frozen=True)
class Halve(UpdateFunction):
    """An update function with no vectorized form: every value goes through ``apply``."""

    def apply(self, value: Any) -> Any:
        return value / 2

    def describe(self) -> str:
        return "/= 2"


FUNCTIONS = [SetTo(3), SetTo(2.5), AddConstant(-1.25), MultiplyBy(1.5), None, Halve()]


def per_variant(encoder: ColumnEncoder, pre, functions) -> np.ndarray:
    """Each variant's post values built alone, then encoded alone."""
    block = np.empty((len(functions), len(pre), encoder.width))
    for out, function in zip(block, functions):
        post = pre if function is None else apply_update_column(function, pre)
        encoder.transform_into(post, out)
    return block


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
def test_a_numeric_block_is_the_per_variant_block(nan):
    rng = np.random.default_rng(5)
    pre = rng.normal(10.0, 3.0, size=257)
    if nan:
        pre[rng.choice(len(pre), size=40, replace=False)] = np.nan
    encoder = ColumnEncoder.fit("B", pre)
    assert encoder.numeric and encoder.fill_value == float(pre[~np.isnan(pre)].mean())
    block = encode_post(encoder, pre, FUNCTIONS)
    assert same_bits(block, per_variant(encoder, pre, FUNCTIONS))
    assert not np.isnan(block).any()
    if nan:  # NaN pre values come out as the encoder's mean, under +, * and no function
        holes = np.isnan(pre)
        for variant in (2, 3, 4):
            assert (block[variant, holes, 0] == encoder.fill_value).all()


def test_an_update_that_makes_nan_is_filled_as_alone():
    pre = np.array([0.0, 1.0, np.inf, -2.0])
    encoder = ColumnEncoder.fit("B", np.array([1.0, 2.0, 4.0]))
    functions = [MultiplyBy(float("inf")), AddConstant(float("-inf")), SetTo(float("nan"))]
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        block = encode_post(encoder, pre, functions)
        assert same_bits(block, per_variant(encoder, pre, functions))
    assert not np.isnan(block).any()


def test_a_one_hot_block_is_the_per_variant_block():
    pre = np.array(["a", "b", "c", "b", None, "a"], dtype=object)
    encoder = ColumnEncoder.fit("B", pre)
    assert not encoder.numeric and encoder.width == 3
    functions = [SetTo("c"), None, SetTo("z")]
    assert same_bits(encode_post(encoder, pre, functions), per_variant(encoder, pre, functions))


def test_integer_pre_values_keep_the_per_value_path():
    pre = np.arange(6, dtype=np.int64)
    encoder = ColumnEncoder.fit("B", pre)
    functions = [MultiplyBy(0.5), AddConstant(2), None]
    assert same_bits(encode_post(encoder, pre, functions), per_variant(encoder, pre, functions))


@pytest.mark.parametrize(
    "function", [SetTo(4), AddConstant(0.5), MultiplyBy(1.1)], ids=lambda f: type(f).__name__
)
def test_apply_vectorized_into_out_is_its_fresh_result(function):
    values = np.array([1.0, np.nan, -3.5, 0.0])
    out = np.full(len(values), 99.0)
    assert function.apply_vectorized(values, out=out) is out
    assert same_bits(out, function.apply_vectorized(values))
    assert Halve().apply_vectorized(values, out=np.empty(4)) is None


@pytest.fixture
def per_variant_kernel(monkeypatch):
    """Run the kernel with the per-variant encoding instead."""

    def run(call):
        with monkeypatch.context() as patched:
            patched.setattr(whatif_module, "encode_post", per_variant)
            return call()

    return run


def what_if_fields(answer) -> tuple:
    return (answer.value, answer.expected_qualifying_count, answer.n_scope_tuples)


def test_what_if_answers_are_the_per_variant_answers(per_variant_kernel):
    dataset = make_german_syn(600, seed=21)
    amount = np.array(dataset.database["Credit"].column("CreditAmount"), dtype=float)
    amount[::7] = np.nan  # pre values with NaN: filled with the encoder's mean
    database = with_columns(dataset.database, {"Credit": {"CreditAmount": amount}})
    query = parse_query(
        "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = 1.5 * PRE(CreditAmount) "
        "OUTPUT AVG(POST(Credit)) FOR PRE(Housing) >= 2 OR POST(Credit) = 1"
    )
    group = [
        replace(query, updates=[AttributeUpdate("CreditAmount", function)])
        for function in FUNCTIONS
        if function is not None
    ]
    engine = HypeR(database, dataset.causal_dag, CONFIG).whatif_engine
    in_place = engine.evaluate_variants(group)
    reference = per_variant_kernel(lambda: engine.evaluate_variants(group))
    assert [what_if_fields(a) for a in in_place] == [what_if_fields(a) for a in reference]
    alone = [engine.evaluate(member) for member in group]  # k = 1 of each
    assert [what_if_fields(a) for a in in_place] == [what_if_fields(a) for a in alone]


def test_a_one_hot_update_attribute_answers_as_per_variant(per_variant_kernel):
    # the linear fixture's treatment, binned into labels: a one-hot update attribute
    database, dag, _scm, _use, columns = make_linear_dataset(300, seed=9)
    labels = np.array(["lo", "mid", "hi"], dtype=object)[np.digitize(columns["B"], [3.0, 6.0])]
    obs = database["Obs"].with_column("B", labels)
    engine = HypeR(Database([obs]), dag, CONFIG).whatif_engine
    text = "USE Obs WHEN X >= 2 UPDATE(B) = '{label}' OUTPUT AVG(POST(Y))"
    group = [parse_query(text.format(label=label)) for label in ("lo", "mid", "hi")]
    estimator = engine.build_estimator(group[0], engine.prepare(group[0]))
    in_place = engine.evaluate_variants(group, estimator=estimator)
    assert estimator.encoder("B").width == 3
    reference = per_variant_kernel(lambda: engine.evaluate_variants(group, estimator=estimator))
    assert [what_if_fields(a) for a in in_place] == [what_if_fields(a) for a in reference]
    assert len({a.value for a in in_place}) == 3


def test_a_how_to_with_its_baseline_answers_as_per_variant(per_variant_kernel):
    dataset = make_german_syn(600, seed=22)
    query = parse_query(
        "USE Credit HOWTOUPDATE Status, Savings LIMIT 1 <= POST(Status) <= 4 "
        "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
    )
    engine = HypeR(dataset.database, dataset.causal_dag, CONFIG)
    in_place = engine.how_to(query)
    reference = per_variant_kernel(
        lambda: HypeR(dataset.database, dataset.causal_dag, CONFIG).how_to(query)
    )
    assert isinstance(in_place, HowToResult)

    def how_to_fields(answer: HowToResult) -> tuple:
        return (
            answer.objective_value,
            answer.baseline_value,
            answer.verified_value,
            answer.plan(),
            answer.n_candidates,
        )

    assert how_to_fields(in_place) == how_to_fields(reference)
