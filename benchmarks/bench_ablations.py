"""Ablations of HypeR's design choices (called out in docs/architecture.md).

1. Block-independent decomposition on/off — the answer must not change; the
   decomposition is bookkeeping plus an optimisation opportunity.
2. Regressor choice (random forest vs linear vs ridge) — all recover the
   direction of the causal effect; the forest is the paper's default.
3. Zero-support index — iterating only over observed value combinations
   (FrequencyTable) versus the full cross product of the attribute domains.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import product

import pytest

from benchmarks.conftest import BENCH_CONFIG, FAST_CONFIG, fmt, print_table
from repro import EngineConfig, HypeR, WhatIfQuery
from repro.core import AttributeUpdate, SetTo
from repro.ml import FrequencyTable
from repro.relational import post


def _status_query(dataset):
    return WhatIfQuery(
        use=dataset.default_use,
        updates=[AttributeUpdate("Status", SetTo(4))],
        output_attribute="Credit",
        output_aggregate="count",
        for_clause=(post("Credit") == 1),
    )


def test_ablation_block_decomposition(amazon, benchmark):
    query = WhatIfQuery(
        use=amazon.default_use,
        updates=[AttributeUpdate("Price", SetTo(400.0))],
        output_attribute="Rtng",
        output_aggregate="avg",
    )
    with_blocks = HypeR(amazon.database, amazon.causal_dag, FAST_CONFIG).what_if(query)
    without = HypeR(
        amazon.database, amazon.causal_dag, replace(FAST_CONFIG, use_blocks=False)
    ).what_if(query)
    print_table(
        "Ablation — block decomposition (Amazon-Syn)",
        ["setting", "blocks", "answer"],
        [
            ["blocks on", with_blocks.n_blocks, fmt(with_blocks.value)],
            ["blocks off", without.n_blocks, fmt(without.value)],
        ],
    )
    assert with_blocks.value == pytest.approx(without.value, rel=1e-9)
    assert with_blocks.n_blocks > without.n_blocks

    session = HypeR(amazon.database, amazon.causal_dag, FAST_CONFIG)
    benchmark.pedantic(lambda: session.what_if(query), rounds=1, iterations=1)


def test_ablation_regressor_choice(german, benchmark):
    query = _status_query(german)
    rows = []
    values = {}
    for kind in ("forest", "linear", "ridge"):
        config = (
            BENCH_CONFIG
            if kind == "forest"
            else EngineConfig(regressor=kind, random_state=0)
        )
        session = HypeR(german.database, german.causal_dag, config)
        started = time.perf_counter()
        high = session.what_if(query).value
        low = session.what_if(
            query.with_updates([AttributeUpdate("Status", SetTo(1))])
        ).value
        elapsed = time.perf_counter() - started
        values[kind] = (high, low)
        rows.append([kind, fmt(high, 1), fmt(low, 1), fmt(elapsed)])
    print_table(
        "Ablation — estimator backend (German-Syn, Status max vs min)",
        ["regressor", "count good credit (Status=max)", "(Status=min)", "seconds (both queries)"],
        rows,
    )
    for kind, (high, low) in values.items():
        assert high > low, f"{kind} regressor lost the direction of the effect"

    session = HypeR(german.database, german.causal_dag, BENCH_CONFIG)
    benchmark.pedantic(lambda: session.what_if(query), rounds=1, iterations=1)


def test_ablation_zero_support_index(german, benchmark):
    """Iterating over observed combinations only, vs the full domain cross product."""
    relation = german.database["Credit"]
    columns = {
        "Status": list(relation.column_view("Status")),
        "Savings": list(relation.column_view("Savings")),
        "Housing": list(relation.column_view("Housing")),
        "Credit": list(relation.column_view("Credit")),
    }
    table = FrequencyTable.fit(columns)

    def with_index():
        total = 0.0
        for status in table.observed_values("Status"):
            for savings in table.observed_values("Savings", {"Status": status}):
                total += table.probability(
                    {"Credit": 1}, {"Status": status, "Savings": savings}
                )
        return total

    def without_index():
        total = 0.0
        status_domain = relation.schema.domain("Status").values()
        savings_domain = relation.schema.domain("Savings").values()
        for status, savings in product(status_domain, savings_domain):
            total += table.probability({"Credit": 1}, {"Status": status, "Savings": savings})
        return total

    started = time.perf_counter()
    indexed_value = with_index()
    indexed_seconds = time.perf_counter() - started
    started = time.perf_counter()
    full_value = without_index()
    full_seconds = time.perf_counter() - started

    n_indexed = len(table.observed_values("Status")) * len(table.observed_values("Savings"))
    n_full = len(relation.schema.domain("Status").values()) * len(
        relation.schema.domain("Savings").values()
    )
    print_table(
        "Ablation — zero-support index (German-Syn conditional probabilities)",
        ["strategy", "combinations visited", "seconds", "accumulated probability"],
        [
            ["observed-support index", n_indexed, fmt(indexed_seconds, 4), fmt(indexed_value, 3)],
            ["full domain product", n_full, fmt(full_seconds, 4), fmt(full_value, 3)],
        ],
    )
    # zero-support combinations contribute nothing, so the answers agree ...
    assert indexed_value == pytest.approx(full_value, rel=1e-9)
    # ... while the index visits no more combinations than the full product
    assert n_indexed <= n_full

    benchmark.pedantic(with_index, rounds=1, iterations=1)
