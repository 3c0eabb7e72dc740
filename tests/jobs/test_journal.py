"""The crash-safe JSONL journal: replay, torn tails, corruption, compaction.

The property tests are the satellite crash-safety harness: whatever byte-level
damage a crash inflicts on the *tail* of the file (truncation mid-record, a
flipped byte, garbage appended), replay must recover exactly the longest valid
prefix and leave the file clean for appending.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jobs.journal import Journal, JournalError


def _write_records(path, n):
    journal = Journal(path)
    journal.open()
    for index in range(n):
        journal.append("submit", f"job-{index}", {"index": index}, sync=(index == n - 1))
    journal.close()


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, 5)
        records = Journal(path).open()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert [r.data["index"] for r in records] == [0, 1, 2, 3, 4]
        assert all(r.type == "submit" for r in records)

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(tmp_path / "j.jsonl").append("submit", "job-1", {})

    def test_missing_file_replays_empty(self, tmp_path):
        journal = Journal(tmp_path / "nested" / "j.jsonl")
        assert journal.open() == []
        journal.append("submit", "job-1", {})
        journal.close()
        assert len(Journal(journal.path).open()) == 1

    def test_sequence_gap_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, 4)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1] + lines[3])  # drop seq 3
        journal = Journal(path)
        records = journal.open()
        assert [r.seq for r in records] == [1, 2]
        assert journal.dropped_records == 1

    def test_replay_truncates_torn_tail_and_appends_cleanly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, 3)
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 4, "type": "fini')  # torn mid-record
        journal = Journal(path)
        assert len(journal.open()) == 3
        journal.append("finish", "job-0", {"state": "succeeded"})
        journal.close()
        records = Journal(path).open()
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert records[-1].type == "finish"

    def test_crc_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        body = {"seq": 1, "type": "submit", "job": "job-0", "data": {}}
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = zlib.crc32(encoded.encode()) ^ 0xFF  # wrong on purpose
        path.write_bytes((json.dumps(body, sort_keys=True) + "\n").encode())
        journal = Journal(path)
        assert journal.open() == []
        assert journal.dropped_records == 1


class TestCrashProperties:
    @given(n=st.integers(1, 8), cut=st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_truncation_recovers_longest_valid_prefix(self, tmp_path_factory, n, cut):
        path = tmp_path_factory.mktemp("trunc") / "j.jsonl"
        _write_records(path, n)
        raw = path.read_bytes()
        cut = min(cut, len(raw))
        path.write_bytes(raw[:cut])  # simulate a crash mid-write
        lines = raw[:cut].split(b"\n")
        whole = sum(1 for line in lines[:-1] if line)  # complete lines kept
        journal = Journal(path)
        records = journal.open()
        # every record up to the cut survives; the torn one (if any) is gone
        assert [r.seq for r in records] == list(range(1, whole + 1))
        # and the file is clean: append + replay extends the prefix
        journal.append("finish", "job-x", {})
        journal.close()
        assert len(Journal(path).open()) == whole + 1

    @given(n=st.integers(1, 6), offset=st.integers(0, 300), flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_bitflip_never_yields_garbage_records(
        self, tmp_path_factory, n, offset, flip
    ):
        path = tmp_path_factory.mktemp("flip") / "j.jsonl"
        _write_records(path, n)
        raw = bytearray(path.read_bytes())
        offset = min(offset, len(raw) - 1)
        raw[offset] ^= flip
        path.write_bytes(bytes(raw))
        records = Journal(path).open()
        # replay stops at the damaged record: a valid (possibly empty)
        # strictly-consecutive prefix, never a record with altered content
        assert [r.seq for r in records] == list(range(1, len(records) + 1))
        for record in records:
            assert record.data.get("index") == record.seq - 1

    @given(junk=st.binary(min_size=1, max_size=64))
    @example(junk=b"[1]\n")  # whole JSON, but not an object
    @example(junk=b'{"seq": 1}\n')  # an object without a crc
    @settings(max_examples=30, deadline=None)
    def test_appended_junk_is_dropped(self, tmp_path_factory, junk):
        path = tmp_path_factory.mktemp("junk") / "j.jsonl"
        _write_records(path, 2)
        with open(path, "ab") as handle:
            handle.write(junk)
        journal = Journal(path)
        records = journal.open()
        assert [r.seq for r in records] in ([1, 2], [1], [])


class TestCompaction:
    def test_group_commit_appends_during_rewrite_do_not_deadlock(self, tmp_path):
        # regression: rewrite once took _write_lock → _sync_lock while a
        # sync=True appender took _sync_lock → _write_lock; under load the
        # two deadlocked, freezing every journal user
        journal = Journal(tmp_path / "j.jsonl")
        journal.open()
        stop = threading.Event()

        def appender():
            while not stop.is_set():
                journal.append("progress", "job-x", {}, sync=True)

        def compactor():
            for _ in range(25):
                journal.rewrite([("snapshot", "job-x", {"state": "queued"})])

        appenders = [threading.Thread(target=appender, daemon=True) for _ in range(3)]
        compact_thread = threading.Thread(target=compactor, daemon=True)
        for thread in (*appenders, compact_thread):
            thread.start()
        compact_thread.join(timeout=120)
        stop.set()
        for thread in appenders:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in (*appenders, compact_thread))
        journal.close()
        # and the surviving file replays clean (strictly consecutive seqs)
        records = Journal(journal.path).open()
        assert [r.seq for r in records] == list(range(1, len(records) + 1))
        assert records  # the last snapshot is always there

    def test_rewrite_replaces_atomically_and_reseeds_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.open()
        for index in range(10):
            journal.append("submit", f"job-{index}", {"index": index}, sync=False)
        journal.flush()
        journal.rewrite([("snapshot", "job-9", {"state": "queued"})])
        assert journal.record_count == 1
        journal.append("lease", "job-9", {"attempt": 1})
        journal.close()
        records = Journal(path).open()
        assert [(r.seq, r.type) for r in records] == [(1, "snapshot"), (2, "lease")]
        assert not os.path.exists(str(path) + ".compact")
