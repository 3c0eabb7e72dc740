"""History recorder and workload drivers for the snapshot-isolation checker.

A :class:`VersionedWorkload` builds a deterministic family of database
versions (seeded rewrites of the ``Credit`` column) and precomputes each
version's ground-truth answer from a fresh single-generation service — the
bitwise fingerprints the checker matches observed answers against.

:func:`run_history` then hammers one store with N reader threads and M
writer threads through a *driver* (direct in-process calls, or the HTTP
door — commits go through ``POST /v1/update`` on the HTTP driver) and
records every read and commit
with client-side wall-clock intervals into a
:class:`~tests.isolation.checker.History`.

:class:`TornCommitService` is the deliberately broken store for the
mutation test: its ``update_database`` installs a half-applied column as a
real intermediate commit inside one recorded commit window, and executes a
recorded probe read while the tear is visible — the checker must flag it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro import EngineConfig, HypeRService
from repro.api.client import HypeRClient
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.obs import trace as obs_trace
from repro.obs.trace import new_request_id

from .checker import CommitEvent, History, ReadEvent

__all__ = [
    "CONFIG",
    "QUERY_TEXT",
    "DirectDriver",
    "HttpDriver",
    "HistoryRecorder",
    "TornCommitService",
    "VersionedWorkload",
    "async_front_door",
    "run_history",
]

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
CONFIG = EngineConfig(regressor="linear")


class VersionedWorkload:
    """A seeded family of database versions with bitwise answer fingerprints.

    Version 0 is the generated dataset; version ``k >= 1`` replaces the
    ``Credit`` relation's ``Credit`` column with a seeded binary vector.
    ``values[k]`` is the ground-truth answer for :data:`QUERY_TEXT` over
    version ``k``, computed by a fresh service that only ever saw that
    version — what a correct store must return, bit for bit.
    """

    def __init__(self, n_rows: int = 160, n_versions: int = 3, seed: int = 11):
        dataset = make_german_syn(n_rows, seed=seed)
        self.causal_dag = dataset.causal_dag
        base = dataset.database
        relation = base["Credit"]
        rng = np.random.default_rng(seed)
        base_credit = np.asarray(relation.column("Credit"), dtype=float)
        self.databases = {0: base}
        #: full Credit columns as plain floats — what ``/v1/update`` ships
        self.columns = {0: [float(v) for v in base_credit]}
        for version in range(1, n_versions):
            column = rng.integers(0, 2, size=len(base_credit)).astype(float)
            self.columns[version] = [float(v) for v in column]
            self.databases[version] = base.with_relation(
                relation.with_column("Credit", column)
            )
        self.values = {
            version: float(
                HypeRService(db, self.causal_dag, CONFIG).execute(QUERY_TEXT).value
            )
            for version, db in self.databases.items()
        }
        if len(set(self.values.values())) != len(self.values):
            raise AssertionError(
                f"version fingerprints collide for seed {seed}: {self.values}"
            )

    def make_service(self, **kwargs) -> HypeRService:
        return HypeRService(self.databases[0], self.causal_dag, CONFIG, **kwargs)


class HistoryRecorder:
    """Thread-safe event log: wraps reads and commits with monotonic stamps.

    ``read`` may return a bare value or a ``(value, request_id)`` pair and
    ``commit`` may return its request id, or ``(request_id, generation)``
    with the generation it was acknowledged to have installed; ids land on
    the recorded events so a checker violation names the exact offending
    request, and generations give the checker the store's version order.
    """

    def __init__(self, label: str, workload: VersionedWorkload):
        self.history = History(label=label, version_values=dict(workload.values))
        self._lock = threading.Lock()

    def record_read(self, session: str, read: Callable[[], float]) -> float:
        begin = time.monotonic()
        out = read()
        end = time.monotonic()
        if isinstance(out, tuple):
            value, request_id = out
        else:
            value, request_id = out, ""
        with self._lock:
            self.history.reads.append(
                ReadEvent(session, begin, end, float(value), str(request_id))
            )
        return float(value)

    def record_commit(self, version: int, commit: Callable[[], None]) -> None:
        begin = time.monotonic()
        out = commit()
        end = time.monotonic()
        request_id, generation = out if isinstance(out, tuple) else (out, None)
        with self._lock:
            self.history.commits.append(
                CommitEvent(version, begin, end, str(request_id or ""), generation)
            )


def installed_generation(span, fallback: int) -> int:
    """The generation a traced commit installed, read off its ``mvcc.commit`` span.

    ``span`` is the commit's span tree (an ``obs.trace.Span`` or a wire
    ``TraceSpan``; ``None`` when the answer carried no trace).  A racing writer
    cannot move that number, whereas the store's current generation read after
    the call (``fallback``) can already be a later writer's; it stands in only
    where nothing was installed (a no-op commit) or the backend records no
    such span.
    """
    pending = [span] if span is not None else []
    while pending:
        node = pending.pop()
        if node.name == "mvcc.commit":
            return int(node.meta["generation"])
        pending.extend(node.children)
    return fallback


def commit_generation(service: HypeRService, database) -> int:
    """Commit ``database`` in-process; the generation that commit installed."""
    context = obs_trace.TraceContext()
    with obs_trace.activate(context):
        service.update_database(database)
    return installed_generation(context.root, service.generation)


class DirectDriver:
    """Reads and commits call the service in-process — no HTTP in the loop."""

    name = "direct"

    def __init__(self, service: HypeRService, workload: VersionedWorkload):
        self.service = service
        self.workload = workload

    def open_session(self) -> tuple[Callable[[], float], Callable[[], None]]:
        def read() -> tuple[float, str]:
            request_id = new_request_id()
            return float(self.service.execute(QUERY_TEXT).value), request_id

        return read, lambda: None

    def open_writer(self) -> tuple[Callable[[int], None], Callable[[], None]]:
        def commit(version: int) -> tuple[str, int]:
            request_id = new_request_id()
            return request_id, commit_generation(
                self.service, self.workload.databases[version]
            )

        return commit, lambda: None


class HttpDriver:
    """Reads via ``POST /v1/query``, commits via ``POST /v1/update``.

    Every session/writer gets its own :class:`HypeRClient` (one keep-alive
    connection per thread).
    """

    def __init__(self, host: str, port: int, workload: VersionedWorkload, name: str):
        self.host = host
        self.port = port
        self.workload = workload
        self.name = name

    def _client(self) -> HypeRClient:
        return HypeRClient(self.host, self.port, timeout=60.0)

    def open_session(self) -> tuple[Callable[[], float], Callable[[], None]]:
        client = self._client()

        def read() -> tuple[float, str]:
            # the client mints and sends the X-Request-Id, so the recorded id
            # is exactly what the server's traces and slow log saw
            value = float(client.query(QUERY_TEXT).value)
            return value, client.last_request_id

        return read, client.close

    def open_writer(self) -> tuple[Callable[[int], None], Callable[[], None]]:
        client = self._client()

        def commit(version: int) -> tuple[str, int]:
            answer = client.update(
                {"Credit": {"Credit": self.workload.columns[version]}}, trace=True
            )
            return client.last_request_id, installed_generation(
                answer.trace, answer.generation
            )

        return commit, client.close


@contextmanager
def async_front_door(
    service: HypeRService, workload: VersionedWorkload
) -> Iterator[HttpDriver]:
    """The HTTP door (admission control included) on its own loop."""
    with BackgroundAsyncServer(service, max_inflight=8, queue_depth=64) as server:
        host, port = server.address
        yield HttpDriver(host, port, workload, name="async-http")


def make_plans(
    rng: np.random.Generator, n_writers: int, commits_per_writer: int, n_versions: int
) -> list[list[int]]:
    """Per-writer commit sequences; no writer repeats its previous version."""
    plans = []
    for _ in range(n_writers):
        plan: list[int] = []
        previous = 0
        for _ in range(commits_per_writer):
            choices = [v for v in range(n_versions) if v != previous]
            previous = int(rng.choice(choices))
            plan.append(previous)
        plans.append(plan)
    return plans


def run_history(
    driver,
    workload: VersionedWorkload,
    *,
    n_readers: int,
    n_writers: int,
    commits_per_writer: int = 6,
    plans: list[list[int]] | None = None,
    seed: int = 0,
    min_reads: int = 30,
    max_reads: int = 400,
    commit_pause: float = 0.004,
    label: str = "",
) -> History:
    """Race N reader sessions against M writers and record the history.

    Readers loop until every writer has finished *and* they have issued at
    least ``min_reads`` reads (capped at ``max_reads``), so the history is
    dense on both sides of every commit.  Worker exceptions fail the run.
    """
    recorder = HistoryRecorder(label or driver.name, workload)
    if plans is None:
        rng = np.random.default_rng(seed)
        plans = make_plans(rng, n_writers, commits_per_writer, len(workload.databases))
    barrier = threading.Barrier(n_readers + n_writers)
    done = threading.Event()
    errors: list[str] = []

    def reader(index: int) -> None:
        read, close = driver.open_session()
        try:
            barrier.wait(timeout=60)
            count = 0
            while count < max_reads:
                recorder.record_read(f"reader-{index}", read)
                count += 1
                if done.is_set() and count >= min_reads:
                    break
                time.sleep(0.0005)
        except Exception as error:  # noqa: BLE001 - surfaced via `errors`
            errors.append(f"reader-{index}: {type(error).__name__}: {error}")
        finally:
            close()

    def writer(index: int) -> None:
        commit, close = driver.open_writer()
        try:
            barrier.wait(timeout=60)
            for version in plans[index]:
                recorder.record_commit(
                    version, lambda v=version: commit(v)
                )
                time.sleep(commit_pause)
        except Exception as error:  # noqa: BLE001 - surfaced via `errors`
            errors.append(f"writer-{index}: {type(error).__name__}: {error}")
        finally:
            close()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"iso-reader-{i}")
        for i in range(n_readers)
    ] + [
        threading.Thread(target=writer, args=(j,), name=f"iso-writer-{j}")
        for j in range(n_writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads[n_readers:]:
        thread.join(timeout=120)
    done.set()
    for thread in threads[:n_readers]:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "workers hung"
    assert not errors, "\n".join(errors)
    return recorder.history


class TornCommitService(HypeRService):
    """A deliberately broken store: commits are torn, not atomic.

    ``update_database`` first installs a half-applied ``Credit`` column as a
    real intermediate generation, lets ``torn_probe`` (a recorded read)
    observe it, then installs the requested database.  From the recorder's
    point of view this is *one* commit event, so the probe's answer matches
    no installed version's fingerprint — the checker must reject this store.
    """

    torn_probe: Callable[[], None] | None = None

    def update_database(self, database):
        current = self.database
        current_relation = current["Credit"]
        old = np.asarray(current_relation.column("Credit"), dtype=float)
        new = np.asarray(database["Credit"].column("Credit"), dtype=float)
        torn = old.copy()
        torn[: len(torn) // 2] = new[: len(torn) // 2]
        super().update_database(
            current.with_relation(current_relation.with_column("Credit", torn))
        )
        if self.torn_probe is not None:
            self.torn_probe()
        return super().update_database(database)
