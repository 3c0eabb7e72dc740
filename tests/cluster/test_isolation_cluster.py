"""Snapshot isolation through the cluster front door.

The black-box checker from ``tests/isolation`` hammers the coordinator with
reader threads racing two-phase update fan-outs: every answer must match
exactly one committed version's bitwise fingerprint (no torn or blended
merges across shard generations), and reads must be monotonic per session.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.aserve import BackgroundAsyncServer

from ..isolation.checker import check_snapshot_isolation
from ..isolation.harness import CONFIG, HttpDriver, VersionedWorkload, run_history
from .conftest import make_cluster

SEED = 11


@pytest.fixture(scope="module")
def workload() -> VersionedWorkload:
    return VersionedWorkload(n_rows=160, n_versions=3, seed=SEED)


@contextmanager
def cluster_front_door(workload: VersionedWorkload) -> Iterator[HttpDriver]:
    """A 2-shard cluster behind its coordinator front door.

    Shard nodes pin enough generations to cover every commit the
    workload will ever issue, so a scatter racing a flip always finds its
    pinned generation (the cluster analogue of MVCC pinned fallbacks).
    """
    with make_cluster(
        workload.databases[0],
        workload.causal_dag,
        CONFIG,
        n_shards=2,
        retained_generations=16,
    ) as cluster:
        with BackgroundAsyncServer(
            cluster.coordinator, max_inflight=8, queue_depth=64
        ) as front:
            host, port = front.address
            yield HttpDriver(host, port, workload, name="cluster-http")


def test_cluster_front_door_is_snapshot_isolated(workload):
    # one writer, like the other HTTP front-door isolation runs: the
    # coordinator's two-phase update traces no ``mvcc.commit`` span, so the
    # generation it acknowledges is the current one, not provably the one this
    # commit installed — too weak to order concurrent writers by
    with cluster_front_door(workload) as driver:
        history = run_history(
            driver,
            workload,
            n_readers=3,
            n_writers=1,
            commits_per_writer=6,
            seed=SEED,
            min_reads=20,
            label=f"cluster-http seed={SEED} 3rx1w",
        )
    violations = check_snapshot_isolation(history)
    assert not violations, "\n".join(violations)
    assert history.n_events >= 3 * 20
    assert history.commits, "no commits recorded — the race never happened"
