"""Wire codec: every array and every scalar answer survives the JSON hop bit for bit."""

from __future__ import annotations

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from repro.api import endpoints as api
from repro.cluster import wire
from repro.core.results import HowToResult, WhatIfResult
from repro.exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from repro.core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo
from repro.shard.merge import WhatIfShardPartial


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


def how_to_result(updates, **overrides) -> HowToResult:
    """A how-to answer whose floats are the awkward ones: 1/3, -0.0, the smallest subnormal."""
    return HowToResult(
        recommended_updates=list(updates),
        **{"objective_value": 1 / 3, "baseline_value": -0.0, "verified_value": 5e-324, **overrides},
        maximize=False,
        per_attribute_choices={u.attribute: u.function.describe() for u in updates},
        n_candidates=np.int64(7),
        runtime_seconds=0.25,
        metadata={"backdoor_set": ["Age", "Sex"], "n_nodes_explored": np.int64(5)},
    )


def how_to_hop(result):
    return wire.decode_how_to_answer(json_hop(wire.encode_how_to_answer(result)))


class TestCandidates:
    """The updates a how-to chose travel as ``(attribute, function)``."""

    @pytest.mark.parametrize(
        "function",
        [SetTo(3.5), AddConstant(-2.0), MultiplyBy(1.1), SetTo(2)],
        ids=["set", "add", "mul", "set-int"],
    )
    def test_function_round_trip(self, function):
        sent = AttributeUpdate("Status", function)
        (out,) = how_to_hop(how_to_result([sent])).recommended_updates
        assert out == sent and repr(out) == repr(sent)  # SetTo(2) stays an int

    def test_unknown_kind_raises(self):
        payload = wire.encode_how_to_answer(how_to_result([AttributeUpdate("Status", SetTo(1.0))]))
        payload["recommended_updates"][0]["function"]["kind"] = "pow"
        with pytest.raises(wire.WireError):
            wire.decode_how_to_answer(payload)


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
            term_rows=np.array([0, 4, 9]),
        )
        out = wire.decode_what_if_partial(json_hop(wire.encode_what_if_partial(partial)))
        assert out.shard_index == 1 and out.n_shards == 3 and out.n_rows == 10
        assert out.term_rows.tolist() == [0, 4, 9] and out.term_rows.dtype.kind == "i"
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
        assert out.term_rows is None


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


class TestHowToAnswers:
    """``kind="answers"``: a whole how-to result as scalars plus its chosen updates."""

    def test_every_field_survives_the_hop_bit_for_bit(self):
        sent = how_to_result(
            [
                AttributeUpdate("Status", SetTo(np.float64(4.0))),
                AttributeUpdate("Duration", AddConstant(-6)),
                AttributeUpdate("CreditAmount", MultiplyBy(0.8)),
            ]
        )
        assert "runtime_seconds" not in wire.encode_how_to_answer(sent)
        out = how_to_hop(sent)
        sent.runtime_seconds = 0.0  # the coordinator clocks its own
        assert out == sent and out.plan() == sent.plan() and out.payload() == sent.payload()
        for name, value in {"objective": 1 / 3, "baseline": -0.0, "verified": 5e-324}.items():
            assert bits(getattr(out, f"{name}_value")) == bits(value)
        assert type(out.n_candidates) is int and out.maximize is False
        assert type(out.recommended_updates[0].function.value) is float
        unchanged = how_to_hop(how_to_result([], verified_value=None))
        assert unchanged.verified_value is None and unchanged.recommended_updates == []

    def test_error_and_malformed_items(self):
        error = QuerySemanticsError("attribute 'Age' is immutable")
        out = how_to_hop(error)
        assert type(out) is api.ApiError and (out.status, out.envelope) == api.envelope_for(error)
        bad_update = {**wire.encode_how_to_answer(how_to_result([])), "recommended_updates": [3]}
        for payload in (None, [], {"objective_value": 1.0}, {"error": {}}, bad_update):
            with pytest.raises(wire.WireError):
                wire.decode_how_to_answer(payload)


def test_an_update_function_without_a_wire_form_is_refused():
    import numpy as np

    from repro.cluster.wire import WireError, _decode_function, _encode_function, _plain_scalar
    from repro.core.updates import UpdateFunction

    assert _plain_scalar(np.bool_(True)) is True
    with pytest.raises(WireError, match="cannot encode update function Halve"):
        _encode_function(type("Halve", (UpdateFunction,), {})())
    with pytest.raises(WireError, match="malformed update-function payload"):
        _decode_function({"value": 1})
