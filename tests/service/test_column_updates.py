"""Whole-column updates overwrite, they never add, and share what they leave.

``/v1/update`` (``update_relation_columns``) overwrites columns a relation
has: an attribute it lacks is a 400 ``query_semantics`` on every backend,
with nothing committed.  The relation it commits shares every untouched
column with the generation before, which stays bitwise what it was for a
reader pinned to it.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, HypeRService
from repro.api import endpoints as api
from repro.datasets import make_german_syn
from repro.exceptions import QuerySemanticsError

QUERY = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=7)


def column_bytes(relation) -> dict[str, bytes]:
    return {name: relation.column_view(name).tobytes() for name in relation.attribute_names}


@pytest.mark.parametrize("execution", ["threads", "processes"])
def test_an_unknown_attribute_is_rejected_not_added(dataset, execution):
    config = EngineConfig(regressor="linear")
    kwargs = {"n_shards": 2} if execution == "processes" else {}
    with HypeRService(
        dataset.database, dataset.causal_dag, config, execution=execution, **kwargs
    ) as service:
        before = service.execute(QUERY)
        with pytest.raises(QuerySemanticsError) as excinfo:
            service.update_relation_columns({"Credit": {"Nope": [1.0] * 200}})
        status, envelope = api.envelope_for(excinfo.value)
        assert (status, envelope.code) == (400, "query_semantics")
        assert "'Nope'" in envelope.message
        assert service.generation == 0
        assert "Nope" not in service.database["Credit"]
        assert service.execute(QUERY).value == before.value


def test_a_commit_shares_the_untouched_columns_and_leaves_the_pinned_generation(dataset):
    with HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    ) as service:
        with service.versions.pin() as snapshot:
            old = snapshot.state.database["Credit"]
            frozen = column_bytes(old)
            status = old.column("Status")
            service.update_relation_columns({"Credit": {"Status": 5.0 - status}})
            new = service.database["Credit"]
            assert service.generation == 1 and new is not old
            for name in old.attribute_names:
                shared = new.column_view(name) is old.column_view(name)
                assert shared == (name != "Status"), name
            # the reader pinned at generation 0 still reads generation 0, bit for bit
            assert snapshot.state.database["Credit"] is old
            assert column_bytes(old) == frozen
            assert new.column_view("Status").tobytes() == (5.0 - status).tobytes()
