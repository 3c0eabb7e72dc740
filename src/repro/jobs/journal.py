"""Append-only JSONL write-ahead journal for the job service: CRC-framed
records, fsync group commit, replay with torn-tail truncation, and atomic
compaction.

One record per line::

    {"seq": 17, "type": "finish", "job": "job-4f…", "data": {…}, "crc": 123}

``crc`` is the CRC-32 of the canonical JSON encoding of the record *without*
the ``crc`` field, so a torn write (power cut mid-line) or a flipped byte is
detected on replay.  ``seq`` is strictly consecutive within a journal file;
a gap means records were lost and replay stops at the last good prefix.

Durability is fsync **group commit**: every appender waits until its record
is known synced, but concurrent appenders share one ``fsync`` — the thread
that reaches the sync lock first syncs everything written so far and the
rest observe ``synced_seq`` has already passed them.  Records that only
checkpoint progress may opt out (``sync=False``); losing them merely costs
a re-execution, never a job.

Replay (:meth:`Journal.open`) validates every line and **truncates** the
file back to the last valid record, so a crash mid-append leaves a clean
journal.  :meth:`Journal.rewrite` compacts: it atomically replaces the file
with a caller-provided snapshot of live records (tmp file → fsync →
``os.replace`` → fsync the directory).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["Journal", "JournalError", "JournalRecord"]


class JournalError(RuntimeError):
    """The journal file cannot be opened or written."""


@dataclass(frozen=True)
class JournalRecord:
    """One validated journal entry."""

    seq: int
    type: str
    job: str
    data: dict[str, Any]


def _canonical(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode(seq: int, record_type: str, job: str, data: dict[str, Any]) -> bytes:
    body = {"seq": seq, "type": record_type, "job": job, "data": data}
    crc = zlib.crc32(_canonical(body).encode("utf-8"))
    body["crc"] = crc
    return (_canonical(body) + "\n").encode("utf-8")


def _decode(line: bytes) -> JournalRecord | None:
    """The record on ``line``, or ``None`` if it is torn or corrupt."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the trailing newline never made it to disk
    try:
        raw = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(raw, dict) or "crc" not in raw:
        return None
    crc = raw.pop("crc")
    if crc != zlib.crc32(_canonical(raw).encode("utf-8")):
        return None
    try:
        return JournalRecord(
            seq=int(raw["seq"]),
            type=str(raw["type"]),
            job=str(raw["job"]),
            data=dict(raw["data"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


class Journal:
    """A crash-safe append-only record log backing one :class:`JobManager`."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._write_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._file = None  # type: Any
        self._written_seq = 0
        self._synced_seq = 0
        #: records dropped by the last replay (torn/corrupt tail)
        self.dropped_records = 0
        #: live record count in the current file (drives compaction)
        self.record_count = 0

    # -- open / replay -----------------------------------------------------------------

    def open(self) -> list[JournalRecord]:
        """Replay the journal, truncate any corrupt tail, and start appending.

        Returns every valid record in order.  The file is truncated back to
        the last record whose checksum and sequence validate — a torn write
        from a crash mid-append, or corruption anywhere, drops that record
        *and everything after it* (later records may depend on the lost one).
        """
        records: list[JournalRecord] = []
        good_offset = 0
        dropped = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                expected_seq = 1
                for line in handle:
                    record = _decode(line)
                    if record is None or record.seq != expected_seq:
                        dropped += 1
                        break
                    records.append(record)
                    expected_seq += 1
                    good_offset += len(line)
                else:
                    good_offset = handle.tell()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(self.path, "ab")
        if self._file.tell() != good_offset:
            self._file.truncate(good_offset)
            self._file.seek(good_offset)
            os.fsync(self._file.fileno())
        self.dropped_records = dropped
        self.record_count = len(records)
        self._written_seq = records[-1].seq if records else 0
        self._synced_seq = self._written_seq
        return records

    # -- append ------------------------------------------------------------------------

    def append(
        self, record_type: str, job: str, data: dict[str, Any], *, sync: bool = True
    ) -> int:
        """Append one record; with ``sync=True`` return only once it is durable."""
        if self._file is None:
            raise JournalError("journal is not open")
        with self._write_lock:
            seq = self._written_seq + 1
            self._file.write(_encode(seq, record_type, job, data))
            self._written_seq = seq
            self.record_count += 1
        if sync:
            self._sync_to(seq)
        return seq

    def _sync_to(self, seq: int) -> None:
        """Group commit: one fsync covers every record written before it."""
        with self._sync_lock:
            if self._synced_seq >= seq:
                return  # a later appender's fsync already covered us
            with self._write_lock:
                self._file.flush()
                covered = self._written_seq
            os.fsync(self._file.fileno())
            self._synced_seq = covered

    def flush(self) -> None:
        """Force out everything written so far (used on shutdown)."""
        if self._file is not None and self._written_seq:
            self._sync_to(self._written_seq)

    # -- compaction --------------------------------------------------------------------

    def rewrite(self, records: Iterable[tuple[str, str, dict[str, Any]]]) -> None:
        """Atomically replace the journal with a compacted snapshot.

        ``records`` are ``(type, job, data)`` tuples; sequence numbers are
        reassigned from 1.  The snapshot is written to a temporary file,
        fsynced, renamed over the journal, and the directory entry fsynced —
        a crash at any point leaves either the old file or the new one,
        never a blend.
        """
        if self._file is None:
            raise JournalError("journal is not open")
        # Lock order must match _sync_to (_sync_lock → _write_lock): a
        # group-committing appender holds _sync_lock while waiting for
        # _write_lock, so taking them the other way around here deadlocks.
        with self._sync_lock, self._write_lock:
            tmp_path = self.path + ".compact"
            count = 0
            with open(tmp_path, "wb") as tmp:
                for record_type, job, data in records:
                    count += 1
                    tmp.write(_encode(count, record_type, job, data))
                tmp.flush()
                os.fsync(tmp.fileno())
            self._file.close()
            os.replace(tmp_path, self.path)
            directory = os.path.dirname(os.path.abspath(self.path))
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._file = open(self.path, "ab")
            self._written_seq = count
            self._synced_seq = count
            self.record_count = count

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None
