"""Figure 12 — runtime vs dataset size on German-Syn.

(a) What-if: HypeR and the Indep baseline grow roughly linearly with the data;
    HypeR-sampled flattens out once the sample cap is reached.
(b) How-to: HypeR's IP-based search also grows roughly linearly, while the
    Opt-HowTo baseline (full enumeration of update combinations, each evaluated
    on the full data) is substantially more expensive at every size.  The
    seconds are printed; what is asserted is the work each method does — full-data
    evaluations — which no host load can move.

Sizes are scaled down from the paper's 10k–1M sweep (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import FAST_CONFIG, fmt, print_table
from repro import HowToQuery, HypeR, LimitConstraint, Variant, WhatIfQuery, WorkloadGenerator
from repro.core import AttributeUpdate, HowToEngine, SetTo
from repro.datasets import make_german_syn
from repro.relational import post

SIZES = (500, 1_000, 2_000, 4_000)
SAMPLE_CAP = 1_000
N_WORKLOAD_QUERIES = 3  # the paper averages over five queries; scaled down with the data


def _whatif_query(dataset):
    return WhatIfQuery(
        use=dataset.default_use,
        updates=[AttributeUpdate("Status", SetTo(4))],
        output_attribute="Credit",
        output_aggregate="count",
        for_clause=(post("Credit") == 1),
    )


HOWTO_LIMITS = {
    "Status": (1.0, 4.0),
    "Housing": (1.0, 3.0),
    "Savings": (1.0, 4.0),
    "CreditHistory": (0.0, 4.0),
}


def _howto_query(dataset, n_attributes=2):
    attributes = list(HOWTO_LIMITS)[:n_attributes]
    return HowToQuery(
        use=dataset.default_use,
        update_attributes=attributes,
        objective_attribute="Credit",
        objective_aggregate="count",
        for_clause=(post("Credit") == 1),
        limits=[LimitConstraint(a, *HOWTO_LIMITS[a]) for a in attributes],
        candidate_buckets=4,
        candidate_multipliers=(),
    )


def _howto_work(engine, query):
    """Full-data evaluations of the IP formulation (one per candidate, the
    program itself solved in closed form) and of Opt-HowTo."""
    searched = engine.evaluate(query)
    enumerated = engine.evaluate_exhaustive(query)
    return (
        searched.n_candidates,
        enumerated.metadata["n_combinations_evaluated"],
        searched.runtime_seconds,
        enumerated.runtime_seconds,
    )


def _seconds_per_query(session, workload):
    """The fastest of three passes over ``workload``, per query.

    A cold session caches nothing, so passes repeat the same work — except
    that the first one through a dataset also pays its one-off column-store
    conversion (and, at the first size, imports): a fixed cost as large as a
    query at these sizes, which would hide the growth the figure is about.
    """
    passes = []
    for _ in range(3):
        started = time.perf_counter()
        for query in workload:
            session.what_if(query)
        passes.append((time.perf_counter() - started) / len(workload))
    return min(passes)


def test_fig12a_whatif_runtime_vs_dataset_size(benchmark):
    rows = []
    hyper_times, sampled_times, indep_times = [], [], []
    for size in SIZES:
        dataset = make_german_syn(size, seed=7)
        # Average over a small random workload, as the paper does ("averaged over
        # five different queries"); the fixed Status query is always included.
        workload = [_whatif_query(dataset)] + WorkloadGenerator.for_dataset(
            dataset, output_attribute="Credit", seed=size
        ).what_if_batch(N_WORKLOAD_QUERIES - 1, aggregate="count", with_post_condition=True)
        base = HypeR(dataset.database, dataset.causal_dag, FAST_CONFIG)

        hyper_times.append(_seconds_per_query(base, workload))
        sampled_times.append(_seconds_per_query(base.sampled(SAMPLE_CAP), workload))
        indep_times.append(_seconds_per_query(base.independent_baseline(), workload))

        rows.append([size, fmt(hyper_times[-1]), fmt(sampled_times[-1]), fmt(indep_times[-1])])

    print_table(
        "Figure 12a (scaled) — what-if runtime vs dataset size (German-Syn)",
        ["rows", "HypeR s", "HypeR-sampled s", "Indep s"],
        rows,
    )
    # runtime grows with size for the full engine ...
    assert hyper_times[-1] > hyper_times[0]
    # ... and the sampled variant grows more slowly once the cap binds
    assert (sampled_times[-1] - sampled_times[1]) <= (hyper_times[-1] - hyper_times[1]) + 0.05

    dataset = make_german_syn(SIZES[1], seed=7)
    session = HypeR(dataset.database, dataset.causal_dag, FAST_CONFIG)
    query = _whatif_query(dataset)
    benchmark.pedantic(lambda: session.what_if(query), rounds=1, iterations=1)


def test_fig12b_howto_runtime_vs_dataset_size(benchmark):
    rows = []
    for size in SIZES:
        dataset = make_german_syn(size, seed=7)
        engine = HowToEngine(dataset.database, dataset.causal_dag, FAST_CONFIG)
        searched, enumerated, hyper_s, exhaustive_s = _howto_work(
            engine, _howto_query(dataset)
        )
        rows.append([size, fmt(hyper_s), fmt(exhaustive_s), searched, enumerated])
        # at every size Opt-HowTo evaluates more updates on the full data than
        # the IP formulation scores candidates
        assert enumerated > searched

    print_table(
        "Figure 12b (scaled) — how-to runtime vs dataset size (German-Syn)",
        ["rows", "HypeR s", "Opt-HowTo s", "HypeR evals", "Opt-HowTo evals"],
        rows,
    )

    # ... and the gap keeps widening with more update attributes (Figure 11b):
    # candidates add up, combinations multiply
    dataset = make_german_syn(SIZES[0], seed=7)
    engine = HowToEngine(dataset.database, dataset.causal_dag, FAST_CONFIG)
    work = [
        _howto_work(engine, _howto_query(dataset, n))[:2]
        for n in range(1, len(HOWTO_LIMITS) + 1)
    ]
    print_table(
        "Figure 12b (scaled) — work vs number of update attributes",
        ["attributes", "HypeR evals", "Opt-HowTo evals"],
        [[n + 1, *pair] for n, pair in enumerate(work)],
    )
    ratios = [enumerated / searched for searched, enumerated in work]
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios)
    assert ratios[-1] > 10 * ratios[0]

    dataset = make_german_syn(SIZES[0], seed=7)
    engine = HowToEngine(dataset.database, dataset.causal_dag, FAST_CONFIG)
    query = _howto_query(dataset)
    benchmark.pedantic(lambda: engine.evaluate(query), rounds=1, iterations=1)
