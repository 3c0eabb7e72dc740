"""`update_database` racing in-flight async requests: snapshot isolation.

A thin instantiation of the shared isolation harness (``tests.isolation``):
one writer flips the database back and forth through ``POST /v1/update``
while six reader sessions hammer ``POST /v1/query`` on the asyncio front
door.  The black-box checker proves every answer is bitwise explainable by
exactly one committed generation (no blends), never stale, and monotonic
per session — the hand-rolled pre/post-value comparison this test used to
carry lives in the checker now, with strictly stronger rules.

Eight writers racing ``POST /v1/update`` must each be acknowledged the
generation their own commit installed.
"""

from __future__ import annotations

import threading

from repro.api import HypeRClient
from tests.isolation.checker import check_snapshot_isolation
from tests.isolation.harness import (
    VersionedWorkload,
    async_front_door,
    installed_generation,
    run_history,
)

SEED = 4


def test_async_requests_racing_update_database_see_one_generation():
    workload = VersionedWorkload(n_rows=300, n_versions=2, seed=SEED)
    service = workload.make_service()
    try:
        with async_front_door(service, workload) as driver:
            history = run_history(
                driver,
                workload,
                n_readers=6,
                n_writers=1,
                plans=[[1, 0, 1, 0, 1, 0]],  # six flips under in-flight requests
                min_reads=10,
                label=f"update-race async-http seed={SEED}",
            )
        stats = service.stats()
    finally:
        service.close()

    violations = check_snapshot_isolation(history)
    assert not violations, "\n".join(violations)
    assert len(history.reads) >= 6  # the clients actually got answers mid-race
    assert len(history.commits) == 6
    # the swaps really happened: six generations were committed and retired
    assert stats["versions"]["commits"] == 6
    assert stats["versions"]["pinned_readers"] == 0


def test_racing_updates_each_acknowledge_the_generation_they_installed():
    workload = VersionedWorkload(n_rows=150, n_versions=2, seed=SEED)
    service = workload.make_service()
    start = threading.Barrier(8)
    acks: list[tuple[int, int]] = []
    errors: list[Exception] = []

    def commit(version: int, host: str, port: int) -> None:
        try:
            with HypeRClient(host, port, timeout=60.0) as client:
                start.wait(timeout=30)
                answer = client.update(
                    {"Credit": {"Credit": workload.columns[version]}}, trace=True
                )
            # the generation its own mvcc.commit span recorded, next to the ack
            acks.append((answer.generation, installed_generation(answer.trace, -1)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    try:
        with async_front_door(service, workload) as driver:
            threads = [
                threading.Thread(target=commit, args=(k % 2, driver.host, driver.port))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), "writers hung"
        # a no-op commit acknowledges the generation current at the time
        noop = service.update_database(service.database)
        assert noop == frozenset() and noop.generation == service.generation == 8
    finally:
        service.close()
    assert not errors, errors
    assert sorted(generation for generation, _installed in acks) == list(range(1, 9))
    assert all(generation == installed for generation, installed in acks)
