"""Snapshot-isolation stress: reader x writer storms against the real store.

Three reader/writer mixes hammer the in-process service, and one mix goes
through the HTTP door (reads via ``POST /v1/query``, commits via
``POST /v1/update``).  Every recorded
history — well over a thousand events across the module — must pass the
black-box checker: no torn/blended answers, no stale reads, monotonic
reads per session.  A processes-mode run additionally proves commits are
applied to the live shard pool in place (readers are never paused by a
pool teardown).

Seeds come from ``ISOLATION_SEEDS`` (comma-separated) so CI pins a fixed
matrix and a failing seed can be replayed locally::

    ISOLATION_SEEDS=23 python -m pytest tests/isolation -q

Every violation message embeds the run label (driver, seed, mix), so a red
run prints exactly what to replay.
"""

from __future__ import annotations

import os

import pytest

from .checker import check_snapshot_isolation
from .harness import (
    QUERY_TEXT,
    DirectDriver,
    VersionedWorkload,
    async_front_door,
    run_history,
)

SEEDS = tuple(
    int(seed) for seed in os.environ.get("ISOLATION_SEEDS", "11,23").split(",")
)
#: (n_readers, n_writers, commits_per_writer)
MIXES = ((4, 1, 8), (6, 2, 5), (3, 3, 4))

_workloads: dict[int, VersionedWorkload] = {}
#: per-run event counts, so the module can assert its aggregate volume
_event_counts: list[int] = []


def workload_for(seed: int) -> VersionedWorkload:
    if seed not in _workloads:
        _workloads[seed] = VersionedWorkload(n_rows=160, n_versions=3, seed=seed)
    return _workloads[seed]


def label_for(driver: str, seed: int, mix: tuple[int, int, int]) -> str:
    return f"driver={driver} seed={seed} mix={mix[0]}rx{mix[1]}w"


def assert_isolated(history, *, min_events: int) -> None:
    _event_counts.append(history.n_events)
    violations = check_snapshot_isolation(history)
    assert not violations, "\n".join(violations)
    assert history.n_events >= min_events, (
        f"history too sparse to be meaningful: {history.n_events} events"
    )
    assert history.commits, "no commits were recorded — the race never happened"


@pytest.mark.parametrize("mix", MIXES, ids=[f"{r}rx{w}wx{c}" for r, w, c in MIXES])
@pytest.mark.parametrize("seed", SEEDS)
def test_direct_store_is_snapshot_isolated(seed, mix):
    workload = workload_for(seed)
    n_readers, n_writers, commits_per_writer = mix
    service = workload.make_service()
    try:
        history = run_history(
            DirectDriver(service, workload),
            workload,
            n_readers=n_readers,
            n_writers=n_writers,
            commits_per_writer=commits_per_writer,
            seed=seed,
            label=label_for("direct", seed, mix),
        )
        stats = service.stats()
    finally:
        service.close()
    assert_isolated(history, min_events=n_readers * 30)
    versions = stats["versions"]
    assert versions["pinned_readers"] == 0  # every reader unpinned on completion
    assert versions["commits"] >= 1
    # retirement keeps pace: only the latest snapshot may stay live at rest
    assert versions["live_snapshots"] == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_async_front_door_is_snapshot_isolated(seed):
    workload = workload_for(seed)
    service = workload.make_service()
    try:
        with async_front_door(service, workload) as driver:
            history = run_history(
                driver,
                workload,
                n_readers=3,
                n_writers=1,
                commits_per_writer=6,
                seed=seed,
                min_reads=20,
                label=label_for("async-http", seed, (3, 1, 6)),
            )
    finally:
        service.close()
    assert_isolated(history, min_events=3 * 20)


def test_processes_pool_survives_the_commit_storm():
    """Commits ship deltas to the live pool: same workers, zero teardown."""
    seed = SEEDS[0]
    workload = workload_for(seed)
    service = workload.make_service(execution="processes", n_shards=2)
    try:
        # warm the pool so the run starts with live worker processes
        service.execute(QUERY_TEXT)
        pool = service._pool
        assert pool is not None
        moves, generation = pool.n_updates, service.generation
        history = run_history(
            DirectDriver(service, workload),
            workload,
            n_readers=3,
            n_writers=1,
            commits_per_writer=4,
            seed=seed,
            min_reads=15,
            label=label_for("direct-processes", seed, (3, 1, 4)),
        )
        stats = service.stats()
        assert service._pool is pool  # commits never tore the pool down
        assert stats["pool"]["n_updates"] >= 1
        # one in-place move per commit: a failed one would restart the workers
        assert pool.n_updates - moves == service.generation - generation
    finally:
        service.close()
    assert_isolated(history, min_events=3 * 15)


def test_module_event_volume():
    """The acceptance floor: this module records 1000+ events in aggregate."""
    expected_runs = len(SEEDS) * (len(MIXES) + 1) + 1
    if len(_event_counts) < expected_runs:
        pytest.skip("subset run — the volume floor holds only for the full module")
    assert sum(_event_counts) >= 1000, sorted(_event_counts)
