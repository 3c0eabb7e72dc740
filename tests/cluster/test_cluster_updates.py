"""The two-phase update's stage body: each column once, as one float64 frame.

The coordinator checks a commit's columns once, by ``/v1/update``'s own rule,
and ships each as one :func:`~repro.cluster.wire.encode_array` frame; a node
checks only the frame and the structure around it.  A bad commit answers what
a single node answers, a malformed stage body stages nothing, and every bit
of every value arrives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from perf.workloads import TEMPLATES, grid_constant
from repro import HypeR, HypeRService
from repro.api import HypeRClient
from repro.api import endpoints as api
from repro.api.client import ApiStatusError
from repro.aserve import BackgroundAsyncServer
from repro.cluster import wire
from repro.cluster.shardserver import CLUSTER_UPDATE_PATH
from repro.exceptions import HypeRError
from repro.service.session import with_columns

from .conftest import make_cluster

ROWS = 200


@pytest.fixture()
def single(dataset, config):
    service = HypeRService(dataset.database, dataset.causal_dag, config)
    yield service
    service.close()


@pytest.fixture()
def cluster(dataset, config):
    with make_cluster(dataset.database, dataset.causal_dag, config) as booted:
        yield booted


def door(backend):
    """``backend`` behind an asyncio front door of its own."""
    return BackgroundAsyncServer(backend, max_inflight=4)


def assert_untouched(cluster) -> None:
    """Nothing committed, nothing left staged, no node blamed for it."""
    coord = cluster.coordinator
    assert coord.generation == 0
    for shard in cluster.shards:
        assert shard.service.generation == 0
        with pytest.raises(api.ApiError) as excinfo:
            shard.cluster_update_payload({"phase": "flip", "generation": 1})
        assert excinfo.value.status == 409
    stats = coord.stats()["cluster"]
    assert stats["healthy_nodes"] == 3 and [n["failures"] for n in stats["nodes"]] == [0] * 3


#: a bad commit of each kind, the same on every backend
BAD_COMMITS = {
    "bool": {"Credit": {"Status": [True] * ROWS}},
    "string": {"Credit": {"Status": ["4"] * ROWS}},
    "short column": {"Credit": {"Status": [1.0, 2.0]}},
    "unknown relation": {"Nope": {"Status": [1.0] * ROWS}},
    "unknown attribute": {"Credit": {"Nope": [1.0] * ROWS}},
}


def answer(error: BaseException) -> tuple[int, str, str]:
    if isinstance(error, ApiStatusError):
        return error.status, error.code, error.envelope.message
    status, envelope = api.envelope_for(error)
    return status, envelope.code, envelope.message


def door_answer(client: HypeRClient, assignments) -> tuple[int, str, str]:
    with pytest.raises(ApiStatusError) as excinfo:
        client.post_json("/v1/update", {"api_version": "v1", "assignments": assignments})
    return answer(excinfo.value)


class TestErrorParity:
    @pytest.mark.parametrize("case", list(BAD_COMMITS))
    def test_a_bad_commit_answers_what_a_single_node_answers(self, case, single, cluster):
        assignments = BAD_COMMITS[case]
        with door(single) as front, HypeRClient(*front.address) as client:
            expected = door_answer(client, assignments)
        assert expected[0] == 400
        with pytest.raises(HypeRError) as excinfo:
            cluster.coordinator.update_relation_columns(assignments)
        assert answer(excinfo.value) == expected
        with door(cluster.coordinator) as front, HypeRClient(*front.address) as client:
            assert door_answer(client, assignments) == expected
        assert_untouched(cluster)
        assert single.generation == 0

    def test_nan_is_still_a_number(self, dataset, single, cluster):
        status = dataset.database["Credit"].column("Status").tolist()
        status[3] = math.nan
        assignments = {"Credit": {"Status": status}}
        commit = cluster.coordinator.update_relation_columns(assignments)
        assert commit == single.update_relation_columns(assignments) == {"Credit"}
        expected = single.database["Credit"].column_view("Status").tobytes()
        for shard in cluster.shards:
            assert shard.service.database["Credit"].column_view("Status").tobytes() == expected


class TestStageFrames:
    """A malformed stage body posted straight to a node is a 400, staging nothing."""

    def malformed(self, dataset) -> dict[str, object]:
        """Each case's ``assignments``."""
        good = wire.encode_array(dataset.database["Credit"].column("Status"))
        frames = {
            "wrong dtype": wire.encode_array(np.arange(ROWS, dtype=np.int64)),
            "big-endian": wire.encode_array(np.ones(ROWS, dtype=">f8")),
            "object dtype": {**good, "dtype": "object"},
            "wrong byte count": {**good, "data": good["data"][:-12]},
            "2-D shape": wire.encode_array(np.ones((ROWS, 1))),
            "a list, not a frame": [1.0] * ROWS,
        }
        cases = {case: {"Credit": {"Status": frame}} for case, frame in frames.items()}
        return {**cases, "non-object assignments": [good], "empty assignments": {}}

    def test_each_malformed_body_is_a_400_and_stages_nothing(self, dataset, cluster):
        node = cluster.topology.nodes[0]
        with HypeRClient(node.host, node.port, max_retries=0) as client:
            for case, assignments in self.malformed(dataset).items():
                body = {"phase": "stage", "generation": 1, "assignments": assignments}
                with pytest.raises(ApiStatusError) as excinfo:
                    client.post_json(CLUSTER_UPDATE_PATH, body)
                assert (excinfo.value.status, excinfo.value.code) == (400, "bad_request"), case
        assert_untouched(cluster)
        # the node is fine: the next well-formed commit lands everywhere
        commit = cluster.coordinator.update_relation_columns(
            {"Credit": {"Status": dataset.database["Credit"].column("Status")[::-1]}}
        )
        assert commit.generation == 1
        assert [shard.service.generation for shard in cluster.shards] == [1, 1, 1]

    def test_a_stage_frame_is_the_column_bytes(self, dataset, cluster):
        legs = []
        for shard in cluster.shards:

            def spy(body, _original=shard.cluster_update_payload):
                legs.append(body)
                return _original(body)

            shard.cluster_update_payload = spy
        status = dataset.database["Credit"].column("Status")[::-1]
        cluster.coordinator.update_relation_columns({"Credit": {"Status": status}})
        stages = [body for body in legs if body["phase"] == "stage"]
        assert len(stages) == 3
        for body in stages:
            frame = body["assignments"]["Credit"]["Status"]
            assert (frame["dtype"], frame["shape"]) == ("float64", [ROWS])
            assert wire.decode_array(frame).tobytes() == status.tobytes()


class TestBitExactness:
    #: past 2**53 ints round, past 2**63 they leave int64; -0.0 keeps its
    #: sign, 5e-324 is the least subnormal, 1e308 nearly overflows
    EDGES = [2**53 + 1, 2**63 + 2**11 + 1, 2**64 + 12345, -0.0, 5e-324, 1e308, 7]

    def column(self) -> list:
        return (self.EDGES * (ROWS // len(self.EDGES) + 1))[:ROWS]

    def test_edge_values_commit_bitwise_everywhere(self, single, cluster):
        values = self.column()
        expected = np.array([float(v) for v in values]).tobytes()
        single.update_relation_columns({"Credit": {"CreditAmount": values}})
        assert single.database["Credit"].column_view("CreditAmount").tobytes() == expected
        cluster.coordinator.update_relation_columns({"Credit": {"CreditAmount": values}})
        # and once more through the coordinator's door, as JSON numbers
        with door(cluster.coordinator) as front, HypeRClient(*front.address) as client:
            reversed_values = values[::-1]
            assert client.post_json(
                "/v1/update",
                {"api_version": "v1", "assignments": {"Credit": {"Investment": reversed_values}}},
            )["generation"] == 2
        for shard in cluster.shards:
            credit = shard.service.database["Credit"]
            assert credit.column_view("CreditAmount").tobytes() == expected
            assert credit.column_view("Investment").tobytes() == np.array(
                [float(v) for v in reversed_values]
            ).tobytes()


def test_ten_column_commits_answer_as_cold_hyper(dataset, config, cluster):
    """After each whole-column commit — a backdoor covariate, an update
    attribute, the outcome, a ``When`` / ``For`` attribute in turn — the
    cluster answers the four perf templates as a cold ``HypeR`` over the
    committed data does, bit for bit."""
    texts = [t.format(c=grid_constant(k)) for k in (700, 2500) for t in TEMPLATES]
    cluster.coordinator.execute_many(texts)  # every plan warm on its node
    database = dataset.database
    attributes = ("Investment", "Status", "Credit", "Age")
    for k in range(10):
        attribute = attributes[k % len(attributes)]
        values = np.random.default_rng(k).permutation(database["Credit"].column(attribute))
        assignment = {"Credit": {attribute: list(values)}}
        database = with_columns(database, assignment)
        cluster.coordinator.update_relation_columns(assignment)
        cold = HypeR(database, dataset.causal_dag, config)
        for text, answer in zip(texts, cluster.coordinator.execute_many(texts)):
            expected = cold.execute(text)
            assert (answer.value, answer.n_scope_tuples, answer.n_blocks) == (
                expected.value, expected.n_scope_tuples, expected.n_blocks
            ), (k, text)
