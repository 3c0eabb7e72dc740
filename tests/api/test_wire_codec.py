"""The declared v1 codec: every field is type-checked by name, every schema round-trips.

A table over the golden fixtures swaps each top-level field for a value of
the wrong JSON type and expects a :class:`WireFormatError` naming it; a
Hypothesis property round-trips generated instances of every schema class
through JSON text.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import schemas
from repro.api.schemas import (
    JOB_PRIORITIES,
    JOB_STATES,
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
    UpdateAnswer,
    UpdateRequest,
    WhatIfAnswer,
    WireFormatError,
    answer_from_json,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: the decoder of each golden fixture
DECODERS = {
    "batch_item_error": BatchItem.from_json,
    "batch_item_result": BatchItem.from_json,
    "batch_request": BatchRequest.from_json,
    "cli_query_json": answer_from_json,
    "error_envelope": ErrorEnvelope.from_json,
    "how_to_answer": HowToAnswer.from_json,
    "job_list_answer": JobListAnswer.from_json,
    "job_status": JobStatus.from_json,
    "job_status_failed": JobStatus.from_json,
    "job_submit_request": JobSubmitRequest.from_json,
    "prepare_answer": PrepareAnswer.from_json,
    "prepare_request": PrepareRequest.from_json,
    "query_request": QueryRequest.from_json,
    "stats_snapshot": StatsSnapshot.from_json,
    "what_if_answer": WhatIfAnswer.from_json,
    "what_if_answer_traced": WhatIfAnswer.from_json,
}

#: fixture keys that are not declared fields: stats sections pass through
PASS_THROUGH = {"stats_snapshot": {"aserve"}}


def _wrong_type_cases():
    for path in sorted(FIXTURES.glob("*.json")):
        golden = json.loads(path.read_text())
        for key, value in golden.items():
            if value is None or key in PASS_THROUGH.get(path.stem, ()):
                continue
            yield pytest.param(path.stem, key, 7 if isinstance(value, str) else "x",
                               id=f"{path.stem}.{key}")


def test_every_fixture_has_a_decoder():
    assert {path.stem for path in FIXTURES.glob("*.json")} == set(DECODERS)


@pytest.mark.parametrize("name, key, wrong", _wrong_type_cases())
def test_a_field_of_the_wrong_type_is_rejected_by_name(name, key, wrong):
    golden = json.loads((FIXTURES / f"{name}.json").read_text())
    with pytest.raises(WireFormatError) as caught:
        DECODERS[name]({**golden, key: wrong})
    assert f'"{key}"' in str(caught.value)


class TestStrictDecoders:
    """Decoder cases the fixture table does not make."""

    STATS = json.loads((FIXTURES / "stats_snapshot.json").read_text())
    JOB = json.loads((FIXTURES / "job_status.json").read_text())

    @pytest.mark.parametrize(
        "key, value",
        [("caches", 5), ("relation_generations", [1, 2]), ("regressors", None), ("pool", [])],
    )
    def test_a_stats_section_that_is_not_an_object(self, key, value):
        with pytest.raises(WireFormatError, match=f'"{key}" must be an object'):
            StatsSnapshot.from_json({**self.STATS, key: value})

    @pytest.mark.parametrize("key", ["versions", "pool"])
    def test_stats_versions_and_pool_may_be_null(self, key):
        assert getattr(StatsSnapshot.from_json({**self.STATS, key: None}), key) is None

    @pytest.mark.parametrize(
        "key, value",
        [("generation", 2.5), ("run_at_generation", 1.5), ("priority", "urgent"),
         ("job_kind", "sweep"), ("finished_unix", True)],
    )
    def test_a_job_status_field_of_the_wrong_type(self, key, value):
        with pytest.raises(WireFormatError, match=f'"{key}"'):
            JobStatus.from_json({**self.JOB, key: value})

    def test_a_job_list_total_that_is_not_an_integer(self):
        golden = json.loads((FIXTURES / "job_list_answer.json").read_text())
        with pytest.raises(WireFormatError, match='"total" must be an integer'):
            JobListAnswer.from_json({**golden, "total": "1"})

    def test_a_how_to_answer_without_maximize(self):
        golden = json.loads((FIXTURES / "how_to_answer.json").read_text())
        del golden["maximize"]
        with pytest.raises(WireFormatError, match='"maximize" must be a boolean'):
            HowToAnswer.from_json(golden)

    def test_a_nested_field_is_named_by_its_path(self):
        body = {**self.JOB, "progress": {"completed": 1}}
        with pytest.raises(WireFormatError, match='"progress.total" must be an integer'):
            JobStatus.from_json(body)


# -- the round-trip property -----------------------------------------------------------

text = st.text(max_size=6)
numbers = st.floats(allow_nan=False, allow_infinity=False)
integers = st.integers(-(2**40), 2**40)
json_values = st.recursive(
    st.none() | st.booleans() | integers | numbers | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)
objects = st.dictionaries(text, json_values, max_size=3)
names = st.lists(text, max_size=3).map(tuple)
deadlines = st.none() | st.integers(1, 2**31)
spans = st.recursive(
    st.builds(TraceSpan, name=text, duration_ms=numbers, meta=st.none() | objects),
    lambda inner: st.builds(
        TraceSpan,
        name=text,
        duration_ms=numbers,
        meta=st.none() | objects,
        children=st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=4,
)
traces = st.none() | spans
what_ifs = st.builds(
    WhatIfAnswer,
    value=numbers,
    aggregate=text,
    output_attribute=text,
    variant=text,
    n_scope_tuples=integers,
    n_blocks=integers,
    backdoor_set=names,
    runtime_seconds=numbers,
    trace=traces,
)
how_tos = st.builds(
    HowToAnswer,
    objective_value=numbers,
    baseline_value=numbers,
    maximize=st.booleans(),
    plan=st.dictionaries(text, text, max_size=3),
    solver_status=text,
    runtime_seconds=numbers,
    trace=traces,
)
envelopes = st.builds(
    ErrorEnvelope, code=st.text(min_size=1, max_size=6), message=text,
    detail=st.none() | objects,
)
job_statuses = st.builds(
    JobStatus,
    job_id=text,
    client_id=text,
    state=st.sampled_from(JOB_STATES),
    kind=st.sampled_from(("query", "batch")),
    priority=st.sampled_from(JOB_PRIORITIES),
    completed=integers,
    total=integers,
    attempts=integers,
    max_attempts=integers,
    created_unix=numbers,
    finished_unix=st.none() | numbers,
    generation=st.none() | integers,
    run_at_generation=st.none() | integers,
    error=st.none() | text,
    error_code=st.none() | text,
    result_available=st.booleans(),
)
_STATS_FIELDS = {f.name for f in dataclasses.fields(StatsSnapshot)} | {"api_version"}

SCHEMAS = {
    QueryRequest: st.builds(
        QueryRequest, query=text, exhaustive=st.booleans(), deadline_ms=deadlines
    ),
    BatchRequest: st.builds(BatchRequest, queries=names, deadline_ms=deadlines),
    UpdateRequest: st.builds(
        UpdateRequest,
        assignments=st.dictionaries(
            text,
            st.dictionaries(text, st.lists(numbers, max_size=3).map(tuple), min_size=1,
                            max_size=2),
            min_size=1,
            max_size=2,
        ),
    ),
    TraceSpan: spans,
    # the wire lists changed relations sorted
    UpdateAnswer: st.builds(
        UpdateAnswer, generation=integers, changed=names.map(sorted).map(tuple), trace=traces
    ),
    WhatIfAnswer: what_ifs,
    HowToAnswer: how_tos,
    ErrorEnvelope: envelopes,
    BatchItem: st.one_of(
        st.builds(BatchItem, index=integers, result=what_ifs | how_tos),
        st.builds(BatchItem, index=integers, error=envelopes),
    ),
    StatsSnapshot: st.builds(
        StatsSnapshot,
        generation=integers,
        execution=text,
        n_queries=integers,
        n_batches=integers,
        uptime_seconds=numbers,
        relation_generations=st.dictionaries(text, integers, max_size=3),
        caches=objects,
        serving=objects,
        regressors=objects,
        versions=st.none() | objects,
        pool=st.none() | objects,
        sections=st.dictionaries(
            text.filter(lambda key: key not in _STATS_FIELDS), json_values, max_size=2
        ),
    ),
    PrepareRequest: st.builds(
        PrepareRequest, queries=st.lists(text, min_size=1, max_size=3).map(tuple)
    ),
    PrepareAnswer: st.builds(PrepareAnswer, prepared=integers, generation=integers),
    JobSubmitRequest: st.builds(
        JobSubmitRequest,
        priority=st.sampled_from(JOB_PRIORITIES),
        run_at_generation=st.none() | st.integers(0, 2**40),
        exhaustive=st.booleans(),
    ).flatmap(
        lambda request: st.one_of(
            text.map(lambda query: dataclasses.replace(request, query=query)),
            st.lists(text, min_size=1, max_size=3).map(
                lambda queries: dataclasses.replace(request, queries=tuple(queries))
            ),
        )
    ),
    JobStatus: job_statuses,
    JobListAnswer: st.builds(
        JobListAnswer, jobs=st.lists(job_statuses, max_size=2).map(tuple)
    ),
}


def test_every_schema_class_is_generated():
    exported = {getattr(schemas, name) for name in schemas.__all__}
    assert {c for c in exported if isinstance(c, type) and hasattr(c, "from_json")} == set(
        SCHEMAS
    )


@pytest.mark.parametrize("schema", list(SCHEMAS), ids=lambda schema: schema.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_schema_round_trips_through_json_text(schema, data):
    instance = data.draw(SCHEMAS[schema])
    assert schema.from_json(json.loads(json.dumps(instance.to_json()))) == instance
