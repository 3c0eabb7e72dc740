"""Strict codec behavior of the v1 wire schemas."""

from __future__ import annotations

import json

import pytest

from repro.api.schemas import (
    API_VERSION,
    BatchItem,
    BatchRequest,
    ErrorEnvelope,
    HowToAnswer,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
    WhatIfAnswer,
    WireFormatError,
    answer_from_json,
    answer_from_result,
)
from repro.core.results import HowToResult, WhatIfResult
from repro.core.updates import AttributeUpdate, SetTo


def make_what_if_answer() -> WhatIfAnswer:
    return WhatIfAnswer(
        value=12.5,
        aggregate="avg",
        output_attribute="Risk",
        variant="hyper",
        n_scope_tuples=40,
        n_blocks=7,
        backdoor_set=("Age", "Housing"),
        runtime_seconds=0.25,
    )


def make_how_to_answer() -> HowToAnswer:
    return HowToAnswer(
        objective_value=3.5,
        baseline_value=3.1,
        maximize=True,
        plan={"CreditAmount": "= 1000"},
        solver_status="optimal",
        runtime_seconds=1.5,
    )


class TestRequests:
    def test_query_request_round_trip(self):
        request = QueryRequest(query="USE Credit ...", exhaustive=True)
        data = json.loads(json.dumps(request.to_json()))
        assert data["api_version"] == API_VERSION
        assert QueryRequest.from_json(data) == request

    def test_query_request_defaults(self):
        assert QueryRequest.from_json({"query": "q"}) == QueryRequest("q", False)

    def test_query_request_rejects_unknown_fields(self):
        with pytest.raises(WireFormatError, match="unknown field"):
            QueryRequest.from_json({"query": "q", "shard": 3})

    def test_query_request_rejects_missing_query(self):
        with pytest.raises(WireFormatError, match='"query" must be a string'):
            QueryRequest.from_json({"exhaustive": True})

    def test_query_request_rejects_wrong_types(self):
        with pytest.raises(WireFormatError):
            QueryRequest.from_json({"query": 7})
        with pytest.raises(WireFormatError, match="boolean"):
            QueryRequest.from_json({"query": "q", "exhaustive": "yes"})

    def test_query_request_rejects_wrong_version(self):
        with pytest.raises(WireFormatError, match="api_version"):
            QueryRequest.from_json({"query": "q", "api_version": "v2"})

    def test_query_request_rejects_non_object(self):
        with pytest.raises(WireFormatError, match="JSON object"):
            QueryRequest.from_json(["q"])

    def test_batch_request_round_trip(self):
        request = BatchRequest(queries=("a", "b"))
        assert BatchRequest.from_json(request.to_json()) == request

    def test_batch_request_rejects_non_string_entries(self):
        with pytest.raises(WireFormatError, match="list of strings"):
            BatchRequest.from_json({"queries": ["a", 3]})


class TestAnswers:
    def test_what_if_round_trip(self):
        answer = make_what_if_answer()
        data = json.loads(json.dumps(answer.to_json()))
        assert WhatIfAnswer.from_json(data) == answer
        assert answer_from_json(data) == answer

    def test_how_to_round_trip(self):
        answer = make_how_to_answer()
        data = json.loads(json.dumps(answer.to_json()))
        assert HowToAnswer.from_json(data) == answer
        assert answer_from_json(data) == answer

    def test_answers_reject_unknown_fields(self):
        data = make_what_if_answer().to_json() | {"bonus": 1}
        with pytest.raises(WireFormatError, match="unknown field"):
            WhatIfAnswer.from_json(data)

    def test_answers_reject_kind_mismatch(self):
        data = make_what_if_answer().to_json()
        data["kind"] = "how-to"
        with pytest.raises(WireFormatError):
            answer_from_json(data)

    def test_answers_reject_unknown_kind(self):
        with pytest.raises(WireFormatError, match="unknown kind"):
            answer_from_json({"kind": "group-by"})

    def test_from_result_what_if(self):
        result = WhatIfResult(
            value=2.0,
            aggregate="sum",
            output_attribute="Risk",
            n_scope_tuples=3,
            n_blocks=2,
            backdoor_set=("Age",),
            variant="hyper",
            runtime_seconds=0.5,
        )
        answer = answer_from_result(result)
        assert isinstance(answer, WhatIfAnswer)
        assert answer.value == 2.0
        assert result.payload() == answer.to_json()

    def test_from_result_how_to(self):
        result = HowToResult(
            recommended_updates=[AttributeUpdate("CreditAmount", SetTo(1000))],
            objective_value=5.0,
            baseline_value=4.0,
            maximize=False,
            solver_status="optimal",
            runtime_seconds=0.1,
        )
        answer = answer_from_result(result)
        assert isinstance(answer, HowToAnswer)
        assert answer.plan == {"CreditAmount": "= 1000"}
        assert answer.maximize is False
        assert result.payload() == answer.to_json()


class TestErrorEnvelope:
    def test_round_trip_is_flat_and_backwards_compatible(self):
        envelope = ErrorEnvelope("query_syntax", "bad token", {"position": 4})
        body = envelope.to_json()
        # legacy consumers keep reading a plain string under "error"
        assert body["error"] == "bad token"
        assert body["code"] == "query_syntax"
        assert ErrorEnvelope.from_json(body) == envelope

    def test_detail_omitted_when_none(self):
        assert "detail" not in ErrorEnvelope("bad_request", "x").to_json()

    def test_tolerates_extra_fields(self):
        # 429 bodies decorate the envelope with a top-level retry_after
        envelope = ErrorEnvelope.from_json(
            {"error": "busy", "code": "rate_limited", "retry_after": 1.5}
        )
        assert envelope.code == "rate_limited"

    def test_requires_error_string(self):
        with pytest.raises(WireFormatError):
            ErrorEnvelope.from_json({"code": "x"})


class TestBatchItem:
    def test_result_line(self):
        item = BatchItem(index=2, result=make_what_if_answer())
        data = item.to_json()
        assert data["index"] == 2 and "result" in data
        parsed = BatchItem.from_json(data)
        assert parsed.ok and parsed.result == item.result

    def test_error_line(self):
        item = BatchItem(index=0, error=ErrorEnvelope("query_syntax", "nope"))
        data = item.to_json()
        assert data == {"index": 0, "error": "nope", "code": "query_syntax"}
        parsed = BatchItem.from_json(data)
        assert not parsed.ok and parsed.error.code == "query_syntax"

    def test_exactly_one_of_result_error(self):
        with pytest.raises(WireFormatError):
            BatchItem(index=0).to_json()


class TestStatsSnapshot:
    def test_round_trip_preserves_sections(self):
        snapshot = StatsSnapshot(
            generation=3,
            execution="threads",
            n_queries=10,
            n_batches=2,
            uptime_seconds=1.5,
            relation_generations={"Credit": 3},
            caches={"estimators": {"hits": 1}},
            serving={"in_flight": 0},
            regressors={"fits": 4},
            pool=None,
            sections={"aserve": {"draining": False}},
        )
        data = json.loads(json.dumps(snapshot.to_json()))
        assert data["aserve"] == {"draining": False}
        assert StatsSnapshot.from_json(data) == snapshot

    def test_from_service_stats_moves_unknown_keys_to_sections(self):
        stats = {
            "generation": 0,
            "execution": "threads",
            "n_queries": 1,
            "n_batches": 0,
            "uptime_seconds": 0.1,
            "aserve": {"draining": True},
        }
        snapshot = StatsSnapshot.from_service_stats(stats)
        assert snapshot.sections == {"aserve": {"draining": True}}


class TestUpdateSchemas:
    def test_update_request_round_trip(self):
        request = UpdateRequest(
            assignments={"Credit": {"Credit": (1.0, 0.0), "Status": (2.0, 3.0)}}
        )
        data = json.loads(json.dumps(request.to_json()))
        assert data["api_version"] == API_VERSION
        assert UpdateRequest.from_json(data) == request

    def test_update_request_coerces_ints_to_floats(self):
        request = UpdateRequest.from_json({"assignments": {"R": {"x": [1, 0]}}})
        assert request.assignments == {"R": {"x": (1.0, 0.0)}}

    def test_update_request_rejects_empty_assignments(self):
        with pytest.raises(WireFormatError, match="non-empty"):
            UpdateRequest.from_json({"assignments": {}})
        with pytest.raises(WireFormatError, match="non-empty"):
            UpdateRequest.from_json({"assignments": {"R": {}}})

    def test_update_request_rejects_non_numeric_columns(self):
        with pytest.raises(WireFormatError, match="list of numbers"):
            UpdateRequest.from_json({"assignments": {"R": {"x": [1.0, "no"]}}})
        with pytest.raises(WireFormatError, match="list of numbers"):
            UpdateRequest.from_json({"assignments": {"R": {"x": [True]}}})
        with pytest.raises(WireFormatError, match="list of numbers"):
            UpdateRequest.from_json({"assignments": {"R": {"x": 3.0}}})

    def test_update_request_rejects_unknown_fields_and_versions(self):
        with pytest.raises(WireFormatError, match="unknown field"):
            UpdateRequest.from_json(
                {"assignments": {"R": {"x": [1.0]}}, "force": True}
            )
        with pytest.raises(WireFormatError, match="api_version"):
            UpdateRequest.from_json(
                {"assignments": {"R": {"x": [1.0]}}, "api_version": "v2"}
            )

    def test_update_answer_round_trip_sorts_changed(self):
        answer = UpdateAnswer(generation=3, changed=("B", "A"))
        data = json.loads(json.dumps(answer.to_json()))
        assert data["kind"] == "update"
        assert data["changed"] == ["A", "B"]
        assert UpdateAnswer.from_json(data).generation == 3

    def test_update_answer_noop_form(self):
        answer = UpdateAnswer.from_json(
            {"api_version": API_VERSION, "kind": "update", "generation": 2, "changed": []}
        )
        assert answer.changed == ()

    def test_update_answer_rejects_wrong_kind_and_types(self):
        with pytest.raises(WireFormatError, match="kind"):
            UpdateAnswer.from_json(
                {"api_version": API_VERSION, "kind": "query", "generation": 1, "changed": []}
            )
        with pytest.raises(WireFormatError, match='"changed" must be a list of strings'):
            UpdateAnswer.from_json(
                {"api_version": API_VERSION, "kind": "update", "generation": 1, "changed": [3]}
            )
