"""Wire codec: every array and every scalar answer survives the JSON hop bit for bit."""

from __future__ import annotations

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from repro.api import endpoints as api
from repro.cluster import wire
from repro.core.howto import CandidateUpdate
from repro.core.results import WhatIfResult
from repro.exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from repro.core.updates import AddConstant, MultiplyBy, SetTo
from repro.shard.merge import HowToShardPartial, WhatIfShardPartial


def json_hop(payload):
    """The exact transformation the HTTP boundary applies."""
    return json.loads(json.dumps(payload))


class TestArrays:
    @pytest.mark.parametrize(
        "array",
        [
            np.array([0.1, -0.0, np.pi, 1e-308, np.inf, -np.inf]),
            np.array([np.nan, 1.0000000000000002, -1e300]),
            np.arange(17, dtype=np.int64),
            np.array([True, False, True]),
            np.zeros(0),
            np.random.default_rng(3).standard_normal((4, 7)),
        ],
        ids=["specials", "nan-ulp", "int64", "bool", "empty", "matrix"],
    )
    def test_round_trip_is_bitwise(self, array):
        out = wire.decode_array(json_hop(wire.encode_array(array)))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    def test_random_float64_bit_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        array = bits.view(np.float64)
        out = wire.decode_array(json_hop(wire.encode_array(array)))
        assert out.tobytes() == array.tobytes()

    def test_decoded_array_is_writable(self):
        out = wire.decode_array(wire.encode_array(np.arange(4.0)))
        out[0] = 9.0  # merge finishers scatter into decoded arrays

    def test_corrupt_length_raises(self):
        payload = wire.encode_array(np.arange(4.0))
        payload["shape"] = [3]
        with pytest.raises(wire.WireError):
            wire.decode_array(payload)

    def test_bad_dtype_raises(self):
        payload = wire.encode_array(np.arange(4.0))
        payload["dtype"] = "no-such-dtype"
        with pytest.raises(wire.WireError):
            wire.decode_array(payload)


class TestCandidates:
    @pytest.mark.parametrize(
        "function",
        [SetTo(3.5), AddConstant(-2.0), MultiplyBy(1.1), SetTo(2)],
        ids=["set", "add", "mul", "set-int"],
    )
    def test_function_round_trip(self, function):
        candidate = CandidateUpdate("Status", function, f"Status:{function!r}")
        out = wire.decode_candidate(json_hop(wire.encode_candidate(candidate)))
        assert out == candidate

    def test_unknown_kind_raises(self):
        payload = json_hop(
            wire.encode_candidate(CandidateUpdate("Status", SetTo(1.0), "x"))
        )
        payload["function"]["kind"] = "pow"
        with pytest.raises(wire.WireError):
            wire.decode_candidate(payload)


class TestPartials:
    def test_what_if_partial_round_trip(self):
        rng = np.random.default_rng(5)
        partial = WhatIfShardPartial(
            shard_index=1,
            n_shards=3,
            n_rows=10,
            row_indices=np.array([1, 4, 7]),
            count=rng.standard_normal(3),
            sum=rng.standard_normal(3),
            meta={"variant": "hyper", "n_blocks": np.int64(4), "w": np.float64(0.25)},
            scope_mask=np.array([True] * 10),
            block_of_row=np.arange(10),
            n_blocks=4,
        )
        out = wire.decode_what_if_partial(json_hop(wire.encode_what_if_partial(partial)))
        assert out.shard_index == 1 and out.n_shards == 3 and out.n_rows == 10
        assert out.count.tobytes() == partial.count.tobytes()
        assert out.sum.tobytes() == partial.sum.tobytes()
        assert out.scope_mask.tolist() == partial.scope_mask.tolist()
        assert out.n_blocks == 4
        assert out.meta["n_blocks"] == 4 and out.meta["w"] == 0.25

    def test_none_sum_survives(self):
        partial = WhatIfShardPartial(
            shard_index=0,
            n_shards=2,
            n_rows=4,
            row_indices=np.array([0, 2]),
            count=np.ones(2),
            sum=None,
        )
        out = wire.decode_what_if_partial(json_hop(wire.encode_what_if_partial(partial)))
        assert out.sum is None and out.scope_mask is None and out.n_blocks is None

    def test_how_to_partial_round_trip(self):
        rng = np.random.default_rng(9)
        candidates = [
            CandidateUpdate("Status", SetTo(float(v)), f"Status={v}") for v in (1, 2)
        ]
        partial = HowToShardPartial(
            shard_index=0,
            n_shards=2,
            n_rows=6,
            row_indices=np.array([0, 1, 5]),
            baseline_count=rng.standard_normal(3),
            baseline_sum=rng.standard_normal(3),
            candidate_count=rng.standard_normal((2, 3)),
            candidate_sum=rng.standard_normal((2, 3)),
            signature=tuple((c.attribute, c.label) for c in candidates),
            meta={"backdoor": ["Age"]},
            candidates=candidates,
        )
        out = wire.decode_how_to_partial(json_hop(wire.encode_how_to_partial(partial)))
        assert out.signature == partial.signature
        assert out.candidates == candidates
        assert out.candidate_count.tobytes() == partial.candidate_count.tobytes()
        assert out.baseline_sum.tobytes() == partial.baseline_sum.tobytes()

    def test_verify_round_trip(self):
        own = np.array([2, 3, 5])
        count = np.array([0.25, -0.0, np.pi])
        sum_ = np.array([1e-300, 2.0, 3.0])
        out_own, out_count, out_sum = wire.decode_verify(
            json_hop(wire.encode_verify(own, count, sum_))
        )
        assert out_own.tolist() == own.tolist()
        assert out_count.tobytes() == count.tobytes()
        assert out_sum.tobytes() == sum_.tobytes()


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestAnswers:
    """``kind="answers"``: a whole what-if result as scalars, or its error."""

    @staticmethod
    def result(value, expected=0.0, **overrides) -> WhatIfResult:
        return WhatIfResult(
            value=value,
            aggregate="avg",
            output_attribute="Credit",
            n_view_tuples=200,
            n_scope_tuples=np.int64(137),
            n_blocks=200,
            backdoor_set=("Age", "Sex"),
            variant="hyper-nb",
            runtime_seconds=0.25,
            expected_qualifying_count=expected,
            **overrides,
        )

    @pytest.mark.parametrize(
        "value",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            -0.0,
            5e-324,  # the smallest subnormal
            2.2250738585072009e-308,  # the largest subnormal
            3.0,
            -17.0,
            0.1 + 0.2,
            1.0000000000000002,
            np.float64(166.76943084568302),
        ],
        ids=repr,
    )
    def test_floats_round_trip_bitwise(self, value):
        sent = self.result(value, expected=value)
        out = wire.decode_what_if_answer(json_hop(wire.encode_what_if_answer(sent)))
        assert type(out.value) is float  # 3.0 stays a float, never an int
        assert bits(out.value) == bits(float(value))
        assert bits(out.expected_qualifying_count) == bits(float(value))

    def test_every_scalar_field_survives_and_no_arrays_travel(self):
        metadata = {
            "n_training_rows": np.int64(200),
            "n_disjuncts": 1,
            "feature_attributes": ["Age", "Sex", "Status"],
            "nested": {"weights": [0.5, -0.0, 1e-320], "flags": [True, None]},
        }
        sent = self.result(0.7, expected=12.5, metadata=metadata)
        encoded = json_hop(wire.encode_what_if_answer(sent))
        assert "block_contributions" not in encoded
        assert "runtime_seconds" not in encoded  # the coordinator clocks its own
        out = wire.decode_what_if_answer(encoded)
        for field in fields(WhatIfResult):
            if field.name in ("block_contributions", "runtime_seconds"):
                continue
            assert getattr(out, field.name) == getattr(sent, field.name), field.name
        assert out.block_contributions == [] and out.runtime_seconds == 0.0
        assert type(out.n_scope_tuples) is int and out.backdoor_set == ("Age", "Sex")
        assert bits(out.metadata["nested"]["weights"][1]) == bits(-0.0)
        assert out.payload().keys() == sent.payload().keys()

    @pytest.mark.parametrize(
        "error",
        [
            QuerySemanticsError("unknown attribute 'Nope'"),
            QuerySyntaxError("unexpected token", position=7, line=1),
            api.deadline_error(40),
            RuntimeError("boom"),
        ],
        ids=["semantics", "syntax", "deadline", "internal"],
    )
    def test_error_item_round_trips_as_its_envelope(self, error):
        out = wire.decode_what_if_answer(json_hop(wire.encode_what_if_answer(error)))
        assert isinstance(out, api.ApiError)
        assert (out.status, out.envelope) == api.envelope_for(error)
        assert api.envelope_for(out) == api.envelope_for(error)

    @pytest.mark.parametrize(
        "payload", [None, [], {"value": 1.0}, {"error": {}}, {"status": 400, "error": {}}]
    )
    def test_malformed_item_raises(self, payload):
        with pytest.raises(HypeRError):
            wire.decode_what_if_answer(payload)
