"""The parent differential's comparator, run with this checkout on both sides."""

from __future__ import annotations

import math

import numpy as np

import repro
from tests import differential

SMALL = differential.Corpus(
    sizes=(300,), grid=(0, 4095), settings=(2,), deltas=(500.0,), what_ifs=3, how_tos=1
)


def test_one_package_answers_equal_to_itself():
    left = differential.answers(repro, SMALL)
    right = differential.answers(repro, SMALL)
    kinds = {record["kind"] for record in left}
    assert kinds == {"what-if", "how-to", "error"}
    summary = differential.compare(left, right)
    assert summary.n_answers == len(left)
    assert summary.n_equal == summary.n_answers, summary.line()
    assert summary.ok and summary.max_rel_diff == 0.0


def test_each_kind_of_difference_is_counted():
    what_if = {"kind": "what-if", "floats": (1.0, 2.0), "structure": ("avg", 3, 1, "d")}
    how_to = {"kind": "how-to", "floats": (4.0, 5.0), "plan": {"Status": "= 2"}}
    error = {"kind": "error", "error": ("QuerySemanticsError", "no")}
    left = [what_if, what_if, how_to, error, what_if]
    right = [
        {**what_if, "floats": (1.0 + 1e-15, 2.0)},
        {**what_if, "structure": ("avg", 4, 1, "d")},
        {**how_to, "plan": {"Status": "= 3"}},
        {**error, "error": ("QuerySemanticsError", "yes")},
        {**what_if, "floats": (math.nan, 2.0)},
    ]
    summary = differential.compare(left, right)
    assert (summary.n_answers, summary.n_equal) == (5, 2)
    assert (summary.plan_diffs, summary.structural_diffs, summary.error_diffs) == (1, 1, 1)
    assert summary.max_rel_diff == math.inf and not summary.ok
    assert summary.line().startswith("5 answers, 2 ==, max rel diff inf")
    assert differential.compare(left, left).ok


def test_block_partials_are_floats_and_block_keys_structure():
    def what_if(partials, digest="d"):
        return {
            "kind": "what-if",
            "floats": (1.0, 2.0),
            "partials": np.array(partials),
            "structure": ("avg", 3, 2, digest),
        }

    left = [what_if([0.5, 2.0]), what_if([0.5, 2.0]), what_if([0.5, 2.0])]
    right = [what_if([0.5, 2.0]), what_if([0.5 + 1e-15, 2.0]), what_if([0.5, 2.0], "e")]
    summary = differential.compare(left, right)
    # a last-bit move is measured against the answer's largest partial value
    assert (summary.n_equal, summary.structural_diffs) == (2, 1)
    assert 0.0 < summary.max_rel_diff <= 1e-15 / 2.0
