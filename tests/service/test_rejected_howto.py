"""A how-to the validators reject leaves no estimator behind, in either mode."""

from __future__ import annotations

import pytest

from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn
from repro.exceptions import QuerySemanticsError
from repro.lang import parse_query
from repro.shard.pool import ShardWorkerRuntime

CONFIG = EngineConfig(regressor="linear")
REJECTED = {
    "immutable attribute": (
        "USE Credit HOWTOUPDATE Age LIMIT 20 <= POST(Age) <= 60 "
        "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
    ),
    "unknown attribute": (
        "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
        "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Nope) = 1"
    ),
    "a For comparison mixing Pre and Post": (
        "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
        "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) >= PRE(Housing)"
    ),
}
ACCEPTED = (
    "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(150, seed=3)


@pytest.mark.parametrize("why", REJECTED)
@pytest.mark.parametrize("execution", ["threads", "processes"])
def test_service_caches_nothing_for_a_rejected_how_to(dataset, execution, why):
    service = HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, execution=execution, n_shards=2
    )
    try:
        for exhaustive in (False, True):
            with pytest.raises(Exception) as excinfo:
                service.execute(REJECTED[why], exhaustive=exhaustive)
            assert "QuerySemanticsError" in f"{type(excinfo.value).__name__}{excinfo.value}"
        assert len(service.caches.estimators) == 0
        outcomes = service.execute_many([REJECTED[why], ACCEPTED], return_errors=True)
        assert isinstance(outcomes[0], Exception)
        assert outcomes[1].objective_value == service.execute(ACCEPTED).objective_value
        assert len(service.caches.estimators) == (1 if execution == "threads" else 0)
    finally:
        service.close()


@pytest.mark.parametrize("why", REJECTED)
def test_worker_caches_nothing_for_a_rejected_how_to(dataset, why):
    worker = ShardWorkerRuntime(0, dataset.database, dataset.causal_dag, CONFIG)
    estimators = worker.service.caches.estimators
    query = parse_query(REJECTED[why])
    for exhaustive in (False, True):
        ((ok, (error_type, _message, _trace)),) = worker.handle("batch", ([query], exhaustive))
        assert not ok and error_type == QuerySemanticsError.__name__
    assert len(estimators) == 0 and estimators.stats().misses == 0
    ((ok, _answer),) = worker.handle("batch", ([parse_query(ACCEPTED)], False))
    assert ok and len(estimators) == 1
