"""Fused single-pass kernels vs the unfused reference: exact parity.

Property tests drive :func:`fused_mask_aggregate` and friends with random
masks, groups and finite values and compare against the materialize-then-
aggregate reference with plain ``==`` (no tolerance); an engine-level test
requires a repeated what-if to be stable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, HypeR, WhatIfQuery
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn
from repro.relational import post
from repro.relational.columnar import (
    KernelCache,
    fused_block_summary,
    fused_mask_aggregate,
)


@st.composite
def masked_groups(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    n_groups = draw(st.integers(min_value=1, max_value=8))
    group_ids = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_groups - 1),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    mask = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    values = np.asarray(
        draw(
            st.lists(
                st.floats(
                    min_value=-1e9, max_value=1e9, allow_nan=False, width=64
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    return group_ids, n_groups, mask, values


class TestKernelProperties:
    @given(masked_groups())
    @settings(max_examples=120, deadline=None)
    def test_fused_count_matches_filtered_bincount(self, case):
        group_ids, n_groups, mask, _values = case
        fused = fused_mask_aggregate(group_ids, n_groups, mask=mask, how="count")
        reference = np.bincount(group_ids[mask], minlength=n_groups).astype(float)
        assert fused.tolist() == reference.tolist()

    @given(masked_groups())
    @settings(max_examples=120, deadline=None)
    def test_fused_sum_matches_filtered_bincount(self, case):
        group_ids, n_groups, mask, values = case
        fused = fused_mask_aggregate(
            group_ids, n_groups, mask=mask, values=values, how="sum"
        )
        reference = np.bincount(
            group_ids[mask], weights=values[mask], minlength=n_groups
        )
        assert fused.tolist() == reference.tolist()

    @given(masked_groups())
    @settings(max_examples=80, deadline=None)
    def test_fused_avg_matches_composed_reference(self, case):
        group_ids, n_groups, mask, values = case
        fused = fused_mask_aggregate(
            group_ids, n_groups, mask=mask, values=values, how="avg"
        )
        counts = np.bincount(group_ids[mask], minlength=n_groups).astype(float)
        sums = np.bincount(group_ids[mask], weights=values[mask], minlength=n_groups)
        reference = np.divide(
            sums, counts, out=np.zeros(n_groups), where=counts > 0
        )
        assert fused.tolist() == reference.tolist()

    @given(masked_groups())
    @settings(max_examples=80, deadline=None)
    def test_scalar_kernels_match_materialized(self, case):
        _group_ids, _n_groups, mask, values = case
        one_group = np.zeros(len(mask), dtype=np.int64)
        count = fused_mask_aggregate(one_group, 1, mask=mask, how="count")
        total = fused_mask_aggregate(one_group, 1, mask=mask, values=values, how="sum")
        expected = 0.0
        for value in values[mask]:
            expected += value
        assert count.tolist() == [float(mask.sum())]
        assert total.tolist() == [expected]

    @given(masked_groups())
    @settings(max_examples=60, deadline=None)
    def test_block_summary_is_the_sum_aggregate(self, case):
        group_ids, n_groups, mask, values = case
        assert fused_block_summary(
            values, group_ids, n_groups, mask=mask
        ).tolist() == fused_mask_aggregate(
            group_ids, n_groups, mask=mask, values=values, how="sum"
        ).tolist()


class TestKernelCache:
    def test_hits_return_the_same_frozen_object(self):
        cache = KernelCache()
        first = cache.get("k", lambda: np.arange(4.0))
        second = cache.get("k", lambda: np.arange(4.0))
        assert first is second
        assert not first.flags.writeable
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(220, seed=9)


def queries(dataset, n=4):
    out = []
    for i in range(n):
        aggregate = "count" if i % 2 == 0 else "sum"
        out.append(
            WhatIfQuery(
                use=dataset.default_use,
                updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.04 * i))],
                output_attribute="Credit",
                output_aggregate=aggregate,
                for_clause=(post("Credit") == 1),
            )
        )
    return out


class TestEngineParity:
    def test_repeated_fused_queries_are_stable(self, dataset):
        session = HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
        query = queries(dataset, 1)[0]
        assert session.what_if(query).value == session.what_if(query).value
