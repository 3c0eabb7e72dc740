"""Wire-schema stability: serialized v1 forms are pinned by golden fixtures.

Each fixture under ``tests/api/fixtures/`` is the exact JSON a canonical
object serializes to.  If an edit to :mod:`repro.api.schemas` changes any
byte of the wire form — a renamed field, a dropped key, a type change — the
comparison fails and CI goes red.  **Additive** evolution is the only kind
allowed inside ``v1``: add the new field to the canonical object AND its
fixture in the same change; anything else needs a ``v2`` schema side by side.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.schemas import (
    BatchItem,
    BatchRequest,
    ErrorEnvelope,
    HowToAnswer,
    JobListAnswer,
    JobStatus,
    JobSubmitRequest,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    TraceSpan,
    WhatIfAnswer,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: the canonical object behind every golden fixture (deterministic values)
CANONICAL = {
    "query_request": QueryRequest(
        query="USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
        exhaustive=False,
    ),
    "batch_request": BatchRequest(
        queries=(
            "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
            "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit))",
        )
    ),
    "what_if_answer": WhatIfAnswer(
        value=0.53125,
        aggregate="avg",
        output_attribute="Credit",
        variant="hyper",
        n_scope_tuples=300,
        n_blocks=17,
        backdoor_set=("Age", "Housing"),
        runtime_seconds=0.125,
    ),
    "how_to_answer": HowToAnswer(
        objective_value=0.75,
        baseline_value=0.5,
        maximize=True,
        plan={"CreditAmount": "= 1000", "Duration": "no change"},
        solver_status="optimal",
        runtime_seconds=2.5,
    ),
    "what_if_answer_traced": WhatIfAnswer(
        value=0.53125,
        aggregate="avg",
        output_attribute="Credit",
        variant="hyper",
        n_scope_tuples=300,
        n_blocks=17,
        backdoor_set=("Age", "Housing"),
        runtime_seconds=0.125,
        trace=TraceSpan(
            name="request",
            duration_ms=125.5,
            meta={"request_id": "c0ffee0123456789"},
            children=(
                TraceSpan(name="parse", duration_ms=0.25),
                TraceSpan(name="cache.result", duration_ms=120.0, meta={"hit": False}),
                TraceSpan(name="serialize", duration_ms=0.125),
            ),
        ),
    ),
    "error_envelope": ErrorEnvelope(
        code="query_syntax",
        message="expected keyword 'OUTPUT', found 'OUTPT'",
        detail={"position": 30, "line": 1},
    ),
    "batch_item_result": BatchItem(
        index=1,
        result=WhatIfAnswer(
            value=1.0,
            aggregate="count",
            output_attribute="Credit",
            variant="indep",
            n_scope_tuples=10,
            n_blocks=1,
            backdoor_set=(),
            runtime_seconds=0.0625,
        ),
    ),
    "batch_item_error": BatchItem(
        index=0, error=ErrorEnvelope("query_semantics", "unknown attribute 'Riskk'")
    ),
    "prepare_request": PrepareRequest(
        queries=(
            "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
            "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit))",
        )
    ),
    "prepare_answer": PrepareAnswer(prepared=2, generation=3),
    "job_submit_request": JobSubmitRequest(
        queries=(
            "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
            "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit))",
        ),
        priority="low",
        run_at_generation=3,
    ),
    "job_status": JobStatus(
        job_id="j-6f1d2c3b4a596877",
        client_id="nightly-sweep",
        state="succeeded",
        kind="batch",
        priority="low",
        completed=2,
        total=2,
        attempts=1,
        max_attempts=3,
        created_unix=1700000000.25,
        finished_unix=1700000004.5,
        generation=3,
        run_at_generation=3,
        result_available=True,
    ),
    "job_status_failed": JobStatus(
        job_id="j-0011223344556677",
        client_id="nightly-sweep",
        state="failed",
        kind="query",
        priority="normal",
        completed=0,
        total=1,
        attempts=3,
        max_attempts=3,
        created_unix=1700000000.25,
        finished_unix=1700000009.0,
        error="worker crashed while the lease was held",
        error_code="retry_budget_exhausted",
    ),
    "job_list_answer": JobListAnswer(
        jobs=(
            JobStatus(
                job_id="j-6f1d2c3b4a596877",
                client_id="nightly-sweep",
                state="running",
                kind="batch",
                priority="low",
                completed=1,
                total=2,
                attempts=1,
                max_attempts=3,
                created_unix=1700000000.25,
                generation=3,
            ),
        )
    ),
    "stats_snapshot": StatsSnapshot(
        generation=2,
        execution="processes",
        n_queries=128,
        n_batches=4,
        uptime_seconds=60.5,
        relation_generations={"Credit": 2},
        caches={"estimators": {"hits": 100, "misses": 4}},
        serving={"in_flight": 1, "peak_in_flight": 8},
        regressors={"fits": 4, "hits": 250, "cached": 4},
        versions={
            "latest_generation": 2,
            "commits": 2,
            "noop_commits": 1,
            "pinned_fallbacks": 0,
        },
        pool={"n_shards": 4, "n_updates": 2},
        sections={"aserve": {"draining": False}},
    ),
}

_DECODERS = {
    "query_request": QueryRequest.from_json,
    "batch_request": BatchRequest.from_json,
    "what_if_answer": WhatIfAnswer.from_json,
    "what_if_answer_traced": WhatIfAnswer.from_json,
    "how_to_answer": HowToAnswer.from_json,
    "error_envelope": ErrorEnvelope.from_json,
    "batch_item_result": BatchItem.from_json,
    "batch_item_error": BatchItem.from_json,
    "stats_snapshot": StatsSnapshot.from_json,
    "prepare_request": PrepareRequest.from_json,
    "prepare_answer": PrepareAnswer.from_json,
    "job_submit_request": JobSubmitRequest.from_json,
    "job_status": JobStatus.from_json,
    "job_status_failed": JobStatus.from_json,
    "job_list_answer": JobListAnswer.from_json,
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_serialized_form_matches_golden_fixture(name):
    fixture_path = FIXTURES / f"{name}.json"
    assert fixture_path.exists(), (
        f"golden fixture {fixture_path} is missing; if this is a deliberate "
        f"schema addition, regenerate it with: python -m tests.api.test_schema_stability"
    )
    # byte for byte: key order is part of the pinned form
    serialized = json.dumps(CANONICAL[name].to_json(), indent=2) + "\n"
    assert serialized == fixture_path.read_text(), (
        f"the serialized v1 form of {name} changed; wire changes inside v1 "
        f"must be additive and must update the golden fixture deliberately"
    )


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_golden_fixture_decodes_to_canonical_object(name):
    golden = json.loads((FIXTURES / f"{name}.json").read_text())
    assert _DECODERS[name](golden) == CANONICAL[name]


def regenerate() -> None:  # pragma: no cover - developer utility
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, obj in CANONICAL.items():
        (FIXTURES / f"{name}.json").write_text(
            json.dumps(obj.to_json(), indent=2, sort_keys=False) + "\n"
        )
        print(f"wrote {FIXTURES / f'{name}.json'}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
