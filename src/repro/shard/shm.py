"""Zero-copy shared-memory transport for columnar shard snapshots.

The shard pool ships database snapshots to worker processes.  Pickling them
copies every column twice (serialize + deserialize) per worker; this module
instead places the buffer-protocol serialization of every relation
(:func:`repro.relational.columnar.store_to_buffers`) into one
``multiprocessing.shared_memory`` segment and ships only *segment names and
offsets*.  Workers map the segment and rebuild relations whose numeric
columns are read-only views over shared pages — one copy of the data per
host, whatever the worker count.

Three pieces:

* :func:`encode_database` / :func:`decode_database` — database ⇄ (small
  picklable manifest, flat list of contiguous buffers);
* :class:`SegmentManager` — parent-side owner of the segments, keyed by MVCC
  generation: segments are created on pool start / ``apply_update`` and
  unlinked when the service's :class:`~repro.service.versions.VersionStore`
  retires the generation (or when the pool closes).  On Linux an early unlink
  is safe: workers keep their mappings, only the name disappears, so a
  retired generation's memory is reclaimed exactly when the last worker
  drops its reference;
* :class:`SegmentAttachment` — worker-side registry keeping mapped segments
  alive.  Workers share the parent's ``resource_tracker`` process (fork,
  forkserver and spawn children all inherit its pipe), so the attach-side
  re-registration Python <= 3.12 performs is an idempotent set-add there —
  no explicit unregister dance is needed, and a crashed parent still gets
  its segments reaped by the tracker at exit.

Transport descriptors are self-describing: :func:`ship_buffers` degrades to
an inline (in-message) representation when shared memory is unavailable —
same decode path, pickle pays the copy, answers are identical.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Any, Mapping, Sequence

import numpy as np

from ..obs.metrics import Figure, Reported
from ..relational.columnar import store_from_buffers, store_to_buffers
from ..relational.database import Database
from ..relational.relation import Relation

__all__ = [
    "SegmentAttachment",
    "SegmentManager",
    "decode_database",
    "decode_relations",
    "encode_database",
    "encode_relations",
    "release_buffers",
    "resolve_buffers",
    "ship_buffers",
    "shm_available",
]

_ALIGNMENT = 64  # cache-line align every buffer inside a segment

_shm_probe: bool | None = None


def shm_available() -> bool:
    """Whether POSIX shared memory is usable in this process (probed once)."""
    global _shm_probe
    if _shm_probe is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _shm_probe = True
        except Exception:  # noqa: BLE001 - sandboxed /dev/shm, missing _posixshmem
            _shm_probe = False
    return _shm_probe


def _disarm(segment: Any) -> None:
    """Neutralise a segment whose mapping is still viewed by live arrays.

    ``mmap.close`` raises :class:`BufferError` while exported pointers exist,
    and ``SharedMemory.__del__`` would retry it noisily at GC time.  Dropping
    the handle's references instead leaves the mapping to die with the last
    array view (or the process) — which is the semantics we want anyway.
    """
    segment._buf = None
    segment._mmap = None


# -- database ⇄ buffers ----------------------------------------------------------------


def encode_relations(
    relations: Mapping[str, Relation]
) -> tuple[list[dict[str, Any]], list[np.ndarray]]:
    """Serialize relations to (per-relation manifests, flat buffer list)."""
    manifests: list[dict[str, Any]] = []
    buffers: list[np.ndarray] = []
    for name, relation in relations.items():
        header, rel_buffers = store_to_buffers(relation.columnar_store())
        manifests.append(
            {
                "name": name,
                "schema": relation.schema,
                "header": header,
                "n_buffers": len(rel_buffers),
            }
        )
        buffers.extend(rel_buffers)
    return manifests, buffers


def decode_relations(
    manifests: Sequence[Mapping[str, Any]], buffers: Sequence[np.ndarray]
) -> dict[str, Relation]:
    """Inverse of :func:`encode_relations` (numeric columns stay zero-copy)."""
    out: dict[str, Relation] = {}
    cursor = 0
    for manifest in manifests:
        n_buffers = int(manifest["n_buffers"])
        store = store_from_buffers(
            manifest["header"], buffers[cursor : cursor + n_buffers]
        )
        cursor += n_buffers
        out[manifest["name"]] = Relation.from_colstore(manifest["schema"], store)
    return out


def encode_database(database: Database) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Serialize a whole database to (manifest, flat buffer list)."""
    manifests, buffers = encode_relations(
        {relation.name: relation for relation in database}
    )
    return (
        {"relations": manifests, "foreign_keys": list(database.foreign_keys)},
        buffers,
    )


def decode_database(
    manifest: Mapping[str, Any], buffers: Sequence[np.ndarray]
) -> Database:
    """Inverse of :func:`encode_database`."""
    relations = decode_relations(manifest["relations"], buffers)
    return Database(relations.values(), foreign_keys=manifest["foreign_keys"])


# -- transport descriptors -------------------------------------------------------------


def _layout(buffers: Sequence[np.ndarray]) -> tuple[list[tuple[int, str, int]], int]:
    """Aligned (offset, dtype, count) slot per buffer, plus the total size."""
    slots: list[tuple[int, str, int]] = []
    offset = 0
    for buffer in buffers:
        offset = (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        slots.append((offset, buffer.dtype.str, int(buffer.size)))
        offset += buffer.nbytes
    return slots, max(offset, 1)


def ship_buffers(
    buffers: list[np.ndarray],
    manager: "SegmentManager | None",
    generation: int,
) -> dict[str, Any]:
    """Place ``buffers`` for transport; returns a self-describing descriptor.

    With a :class:`SegmentManager` the bytes go into one shared-memory
    segment registered under ``generation`` and the descriptor carries only
    the segment name and offsets; without one (inline pool mode, platforms
    with no ``/dev/shm``) the buffers ride along in the descriptor and
    pickle pays the copy.
    """
    if manager is None:
        return {"kind": "inline", "buffers": buffers}
    return manager.put(generation, buffers)


def resolve_buffers(
    descriptor: Mapping[str, Any], attachment: "SegmentAttachment | None" = None
) -> list[np.ndarray]:
    """Materialise the buffer list a descriptor points at (worker side)."""
    if descriptor["kind"] == "inline":
        return descriptor["buffers"]
    if attachment is None:
        raise ValueError("a shm descriptor needs a SegmentAttachment to resolve")
    return attachment.buffers(descriptor)


def release_buffers(
    descriptor: Mapping[str, Any], attachment: "SegmentAttachment | None" = None
) -> None:
    """Drop the worker's hold on a one-shot descriptor's segment (a commit's
    patch); arrays already resolved from it stay valid.  Inline descriptors
    hold nothing."""
    if descriptor["kind"] == "shm" and attachment is not None:
        attachment.detach(descriptor["segment"])


class SegmentManager(Reported):
    """Parent-side owner of shared-memory segments, keyed by MVCC generation.

    ``put`` copies a buffer list into one fresh segment; ``release`` unlinks
    every segment of a generation (idempotent); ``close_all`` unlinks
    everything.  Thread-safe: ``release`` is called from the version store's
    retire hook (under the store lock) while ``put`` runs under the pool's
    broadcast lock — the manager's own lock is leaf-level and never calls
    back into either.
    """

    #: ``stats()``, the pool's ``shm`` section
    FIGURES = (
        Figure(
            "live_bytes",
            lambda manager: sum(
                segment.size for group in manager._by_generation.values() for segment in group
            ),
        ),
        Figure("live_segments",
               lambda manager: sum(len(group) for group in manager._by_generation.values())),
        Figure("segments_created", attrgetter("n_created")),
        Figure("segments_unlinked", attrgetter("n_unlinked")),
        Figure("bytes_created", attrgetter("bytes_created")),
    )

    def __init__(self) -> None:
        self._lock = self._figures_lock = threading.Lock()
        self._by_generation: dict[int, list[Any]] = {}
        self.n_created = 0
        self.n_unlinked = 0
        self.bytes_created = 0

    def put(self, generation: int, buffers: list[np.ndarray]) -> dict[str, Any]:
        from multiprocessing import shared_memory

        slots, total = _layout(buffers)
        segment = shared_memory.SharedMemory(create=True, size=total)
        for buffer, (offset, dtype, count) in zip(buffers, slots):
            view = np.frombuffer(segment.buf, dtype=np.dtype(dtype), count=count, offset=offset)
            view[:] = buffer.reshape(-1)
        with self._lock:
            self._by_generation.setdefault(generation, []).append(segment)
            self.n_created += 1
            self.bytes_created += total
        return {
            "kind": "shm",
            "segment": segment.name,
            "slots": slots,
            "nbytes": total,
        }

    def release(self, generation: int) -> int:
        """Unlink every segment registered under ``generation`` (idempotent)."""
        with self._lock:
            segments = self._by_generation.pop(generation, [])
        for segment in segments:
            self._unlink(segment)
        return len(segments)

    def close_all(self) -> None:
        with self._lock:
            segments = [s for group in self._by_generation.values() for s in group]
            self._by_generation.clear()
        for segment in segments:
            self._unlink(segment)

    def _unlink(self, segment: Any) -> None:
        try:
            segment.close()
        except BufferError:
            _disarm(segment)
        except Exception:  # noqa: BLE001 - never fail a retire over cleanup
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        except Exception:  # noqa: BLE001 - never fail a retire over cleanup
            pass
        with self._lock:
            self.n_unlinked += 1


class SegmentAttachment:
    """Worker-side registry of mapped segments (keeps their buffers alive).

    Numeric columns decoded from a segment are views into its mapping; the
    attachment therefore lives as long as the worker runtime.  ``close``
    unmaps without unlinking — the parent's :class:`SegmentManager` is the
    only unlinker.
    """

    def __init__(self) -> None:
        self._segments: dict[str, Any] = {}

    def attach(self, name: str) -> Any:
        segment = self._segments.get(name)
        if segment is None:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=name)
            self._segments[name] = segment
        return segment

    def buffers(self, descriptor: Mapping[str, Any]) -> list[np.ndarray]:
        segment = self.attach(descriptor["segment"])
        out: list[np.ndarray] = []
        for offset, dtype, count in descriptor["slots"]:
            view = np.frombuffer(
                segment.buf, dtype=np.dtype(dtype), count=count, offset=offset
            )
            view.flags.writeable = False
            out.append(view)
        return out

    def detach(self, name: str) -> None:
        """Forget one segment (a commit's patch): it is unmapped now, or —
        while decoded columns still view it — with the last of those views."""
        segment = self._segments.pop(name, None)
        if segment is not None:
            self._unmap(segment)

    def close(self) -> None:
        segments, self._segments = list(self._segments.values()), {}
        for segment in segments:
            self._unmap(segment)

    @staticmethod
    def _unmap(segment: Any) -> None:
        try:
            segment.close()
        except BufferError:
            _disarm(segment)
        except Exception:  # noqa: BLE001 - best-effort unmap
            pass
