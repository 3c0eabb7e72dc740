"""Multi-version concurrency control for the query service.

:class:`VersionStore` keeps the service's immutable per-generation engine
snapshots under MVCC semantics: a *commit* installs a new latest snapshot
atomically, while every in-flight query *pins* the snapshot it started on and
keeps reading it until it finishes — a commit never pauses readers and a
reader never observes a mix of two generations.  Snapshots are refcounted;
a superseded snapshot is *retired* (its engine state released) the moment its
last pinned reader unpins, so long-running readers bound memory to the
handful of generations they actually straddle.  A reader may also pin a
*named* generation while it is still live: a cluster shard node holds its last
few generations pinned, and a leg at one of them is an ordinary reader of it.

The store is deliberately generic — it versions any immutable state object —
so the snapshot-isolation property it provides can be checked black-box by
the recorded-history harness in ``tests/isolation`` (in the style of
"Efficient Black-box Checking of Snapshot Isolation in Databases"): every
answer must be bitwise explainable by exactly one committed snapshot, reads
within a session must be monotonic, and no reader may ever see a torn
(half-committed) generation vector.

Typical use (this is what :class:`~repro.service.session.HypeRService` does)::

    store = VersionStore(initial_state)
    with store.pin() as snapshot:        # reader: pin-at-begin
        answer = evaluate(snapshot.state)
    store.commit(new_state)              # writer: atomic install, no pauses
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Callable, Iterator

from ..obs import trace as obs_trace
from ..obs.metrics import Figure, Reported

__all__ = ["Commit", "Snapshot", "VersionStore"]


class Commit(frozenset):
    """The relations one commit changed, and the generation it installed.

    A frozenset of relation names, so callers after only those keep working;
    ``generation`` is taken inside the commit's critical section, so a racing
    writer cannot move it — for a no-op commit it is the generation that was
    current then.
    """

    __slots__ = ("generation",)

    def __new__(cls, changed: Any = (), generation: int = 0) -> "Commit":
        self = super().__new__(cls, changed)
        self.generation = generation
        return self


class Snapshot:
    """One committed, immutable version of the service's engine state.

    ``state`` is the payload (the service's ``EngineState``); ``generation``
    is its monotonically increasing commit number.  The refcount counts
    readers currently pinned to this snapshot; once the snapshot is
    superseded *and* unpinned it is retired — ``state`` is released so the
    databases and fitted engines of dead generations do not accumulate.
    """

    __slots__ = ("generation", "state", "refcount", "retired", "superseded")

    def __init__(self, generation: int, state: Any) -> None:
        self.generation = generation
        self.state = state
        self.refcount = 0
        self.retired = False
        self.superseded = False

    def __repr__(self) -> str:
        status = "retired" if self.retired else ("old" if self.superseded else "latest")
        return f"Snapshot(gen={self.generation}, refs={self.refcount}, {status})"


class VersionStore(Reported):
    """Refcounted multi-version snapshot store with atomic commits.

    Invariants (the ones the isolation checker verifies from outside):

    * :meth:`pin` returns the latest committed snapshot at some instant
      within the call (or the named live one) — never a superseded-and-retired
      one, never a blend;
    * :meth:`commit` swaps the latest snapshot atomically and *never* blocks
      on readers — in-flight pins keep their snapshot alive until unpinned;
    * generations are strictly increasing, so per-session reads that pin at
      begin are automatically monotonic.

    ``on_retire`` (if given) is called with each snapshot right after its
    state is released — the service uses it to free the retired generation's
    shared-memory segments (and for instrumentation); it runs under the store
    lock and must not call back into the store.
    """

    #: ``stats()``, the ``versions`` section of ``HypeRService.stats()``
    FIGURES = (
        Figure("latest_generation", lambda store: store._latest.generation),
        Figure("commits", attrgetter("_n_commits"), "hyper_mvcc_commits_total",
               "MVCC version store: commits", "counter"),
        Figure("retired", attrgetter("_n_retired"), "hyper_mvcc_retired_total",
               "MVCC version store: retired", "counter"),
        Figure("live_snapshots", lambda store: len(store._live), "hyper_mvcc_live_snapshots",
               "MVCC version store: live_snapshots"),
        Figure("pinned_readers", lambda store: sum(s.refcount for s in store._live.values()),
               "hyper_mvcc_pinned_readers", "MVCC version store: pinned_readers"),
        Figure("peak_live_snapshots", attrgetter("_peak_live")),
        Figure("peak_pinned_readers", attrgetter("_peak_pinned")),
    )

    def __init__(
        self,
        initial_state: Any,
        *,
        generation: int = 0,
        on_retire: Callable[[Snapshot], None] | None = None,
    ) -> None:
        self._lock = self._figures_lock = threading.Lock()
        self._latest = Snapshot(generation, initial_state)
        self.on_retire = on_retire
        self._n_commits = 0
        self._n_retired = 0
        self._live: dict[int, Snapshot] = {self._latest.generation: self._latest}
        self._peak_live = 1
        self._peak_pinned = 0

    # -- readers -----------------------------------------------------------------------

    @property
    def latest(self) -> Snapshot:
        """The current latest snapshot (unpinned peek; may be superseded next)."""
        with self._lock:
            return self._latest

    def acquire(self, generation: int | None = None) -> Snapshot:
        """Pin the latest snapshot (incref); pair with :meth:`release`.

        ``generation`` pins that snapshot instead, as long as it is live —
        the latest, or superseded but still pinned by another reader; a
        retired or never-committed generation raises :class:`LookupError`.
        """
        with self._lock:
            if generation is None:
                snapshot = self._latest
            else:
                snapshot = self._live.get(generation)
                if snapshot is None:
                    raise LookupError(
                        f"generation {generation} is not live "
                        f"(live: {sorted(self._live)})"
                    )
            snapshot.refcount += 1
            pinned = sum(s.refcount for s in self._live.values())
            if pinned > self._peak_pinned:
                self._peak_pinned = pinned
            return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Unpin ``snapshot``; retires it if superseded and no reader remains."""
        with self._lock:
            snapshot.refcount -= 1
            if snapshot.refcount < 0:
                raise RuntimeError(
                    f"snapshot generation {snapshot.generation} released more often "
                    "than acquired"
                )
            self._retire_if_dead(snapshot)

    @contextmanager
    def pin(self, generation: int | None = None) -> Iterator[Snapshot]:
        """Context manager: :meth:`acquire` for the block's duration (a
        ``snapshot.pin`` span when traced)."""
        with obs_trace.span("snapshot.pin") as pin_span:
            snapshot = self.acquire(generation)
            if pin_span is not None:
                pin_span.meta["generation"] = snapshot.generation
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    # -- writers -----------------------------------------------------------------------

    def commit(self, state: Any, *, generation: int | None = None) -> Snapshot:
        """Atomically install ``state`` as the new latest snapshot.

        Readers pinned to older snapshots are untouched; the superseded
        snapshot is retired immediately when nothing is pinned to it,
        otherwise on its last :meth:`release`.  ``generation`` defaults to
        the previous latest plus one and must be strictly increasing.
        """
        # span is a no-op unless the caller's request is being traced (e.g.
        # /v1/update?trace=1); it deliberately wraps the whole critical section
        # so the trace shows commit-lock contention, not just the swap.
        with obs_trace.span("mvcc.commit") as commit_span, self._lock:
            previous = self._latest
            if generation is None:
                generation = previous.generation + 1
            if generation <= previous.generation:
                raise ValueError(
                    f"commit generation {generation} is not after the latest "
                    f"generation {previous.generation}"
                )
            snapshot = Snapshot(generation, state)
            self._latest = snapshot
            self._live[generation] = snapshot
            previous.superseded = True
            self._n_commits += 1
            self._retire_if_dead(previous)
            if len(self._live) > self._peak_live:
                self._peak_live = len(self._live)
            if commit_span is not None:
                commit_span.meta["generation"] = generation
            return snapshot

    # -- internals ---------------------------------------------------------------------

    def _retire_if_dead(self, snapshot: Snapshot) -> None:
        """Release a superseded, unpinned snapshot's state (lock held)."""
        if snapshot.retired or not snapshot.superseded or snapshot.refcount > 0:
            return
        with obs_trace.span("mvcc.retire", generation=snapshot.generation):
            snapshot.retired = True
            snapshot.state = None
            self._live.pop(snapshot.generation, None)
            self._n_retired += 1
            if self.on_retire is not None:
                self.on_retire(snapshot)
