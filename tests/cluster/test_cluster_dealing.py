"""Plan-affine dealing through the real cluster: a commit refits each plan once.

The rule itself is tested without processes in ``tests/service/test_dealing.py``.
"""

from __future__ import annotations

from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn

from ..service.test_dealing import TEMPLATES
from .conftest import make_cluster
from .test_cluster_parity import wire_payload


def batch(base: float) -> list[str]:
    """Two constants of each of the four plans."""
    return [t.format(c=round(base + 0.1 * k, 3)) for k in range(2) for t in TEMPLATES]


def fits(services) -> int:
    return sum(service.stats()["regressors"]["fits"] for service in services)


def test_the_nodes_together_fit_what_one_service_fits():
    dataset = make_german_syn(200, seed=7)
    config = EngineConfig(regressor="linear")
    single = HypeRService(dataset.database, dataset.causal_dag, config)
    investment = [float(v) for v in dataset.database["Credit"].column("Investment")]
    with make_cluster(dataset.database, dataset.causal_dag, config) as cluster:
        coord = cluster.coordinator
        nodes = [shard.service for shard in cluster.shards]
        for commit in range(3):
            if commit:
                column = [min(5.0, v + commit) for v in investment]
                assignment = {"Credit": {"Investment": column}}
                coord.update_relation_columns(assignment)
                single.update_relation_columns(assignment)
            before = fits(nodes), fits([single])
            for base in (0.6, 0.8):  # the second batch finds every plan fitted
                texts = batch(base + commit)
                answers = coord.execute_many(texts)
                assert [wire_payload(a) for a in answers] == [
                    wire_payload(single.execute(text)) for text in texts
                ]
            grown = fits([single]) - before[1]
            assert grown > 0
            # at the parent every plan was refitted on every node it rotated to
            assert fits(nodes) - before[0] == grown
    single.close()
