"""The service layer's refusals and failure paths: a builder that raises, a
plan table past its bound, a batch that fails, a snapshot released twice, a
slow query with no text, and more clients than are tracked."""

from __future__ import annotations

import pytest

from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn
from repro.exceptions import QuerySyntaxError
from repro.lang import parse_query
from repro.relational.expressions import Arithmetic, col, lit
from repro.service.cache import LRUCache
from repro.service.versions import VersionStore

QUERY = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=5)


@pytest.fixture()
def service(dataset):
    with HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"),
        slow_query_seconds=0.0,
    ) as service:
        yield service


def test_a_builder_that_raises_leaves_the_key_to_the_next_caller():
    cache = LRUCache(4)
    with pytest.raises(ZeroDivisionError):
        cache.get_or_create("k", lambda: 1 / 0)
    assert cache.get_or_create("k", lambda: 2) == 2


def test_the_oldest_bound_plan_goes_past_the_bound(service, monkeypatch):
    monkeypatch.setattr("repro.service.plan._BOUND_PLANS", 1)
    for aggregate in ("COUNT", "AVG"):
        for constant in (2, 3):  # a key's second text binds its plan
            service.execute(f"USE Credit UPDATE(Status) = {constant} OUTPUT {aggregate}(POST(Credit))")
    assert service.stats()["caches"]["plans"]["evictions"] == 1


def test_a_what_if_object_answers_as_its_text(service):
    assert service.what_if(parse_query(QUERY)).value == service.execute(QUERY).value


def test_a_batch_raises_its_first_failure_unless_asked_for_errors(service):
    with pytest.raises(QuerySyntaxError):
        service.execute_many(["NOT A QUERY", QUERY])
    failed, answered = service.execute_many(
        ["USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Nope))", QUERY], return_errors=True
    )
    assert isinstance(failed, Exception) and answered.value == service.execute(QUERY).value


def test_a_snapshot_released_twice_is_refused():
    store = VersionStore(None)
    snapshot = store.acquire()
    store.release(snapshot)
    with pytest.raises(RuntimeError, match="released more often than acquired"):
        store.release(snapshot)


def test_a_slow_query_without_text_is_logged_by_its_repr(service):
    query = parse_query(QUERY)
    query.when = Arithmetic(col("Age"), "+", lit(1)) > 30  # no query-text form
    service.execute(query)
    texts = [entry["query"] for entry in service.slow_log.snapshot()["entries"]]
    assert any(text.startswith("WhatIfQuery(") for text in texts)


def test_clients_past_the_tracked_bound_count_as_other(service, monkeypatch):
    monkeypatch.setattr(type(service), "_MAX_TRACKED_CLIENTS", 1)
    for client in ("a", "b", "c"):
        service.note_client_request(client)
    assert service.stats()["clients"]["requests"] == {"a": 1, "_other": 2}


def test_an_update_function_that_is_no_dataclass_keys_by_its_repr():
    from repro.core.updates import AttributeUpdate, UpdateFunction
    from repro.service.fingerprint import fingerprint_query

    class Halve(UpdateFunction):
        def __repr__(self) -> str:
            return "Halve()"

    query = parse_query(QUERY)
    query.updates = [AttributeUpdate("Status", Halve())]
    config = EngineConfig(regressor="linear")
    assert fingerprint_query(query, config) == fingerprint_query(query, config)
