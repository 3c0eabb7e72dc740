"""Unit behavior of the MVCC :class:`VersionStore` (refcounts, retirement)."""

from __future__ import annotations

import threading

import pytest

from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn
from repro.service.versions import VersionStore


class TestPinning:
    def test_pin_returns_latest_and_unpins_on_exit(self):
        store = VersionStore("v0")
        with store.pin() as snapshot:
            assert snapshot.state == "v0"
            assert snapshot.refcount == 1
        assert snapshot.refcount == 0
        assert not snapshot.retired  # still the latest: never retired

    def test_reader_keeps_its_snapshot_across_a_commit(self):
        store = VersionStore("v0")
        with store.pin() as snapshot:
            store.commit("v1")
            # the reader is untouched: same pinned state, not retired
            assert snapshot.state == "v0"
            assert snapshot.superseded and not snapshot.retired
            assert store.latest.state == "v1"
        # last unpin retires the superseded snapshot and releases its state
        assert snapshot.retired and snapshot.state is None

    def test_nested_pins_retire_only_on_last_release(self):
        store = VersionStore("v0")
        first = store.acquire()
        second = store.acquire()
        store.commit("v1")
        store.release(first)
        assert not second.retired and second.state == "v0"
        store.release(second)
        assert second.retired


class TestPinningByGeneration:
    def test_a_superseded_generation_still_pinned_is_acquired_by_number(self):
        store = VersionStore("v0")
        holder = store.acquire()
        store.commit("v1")
        with store.pin(0) as again:
            assert again is holder and again.state == "v0" and again.refcount == 2
        assert store.acquire(1) is store.latest
        store.release(holder)
        assert holder.retired

    def test_a_retired_or_uncommitted_generation_raises(self):
        store = VersionStore("v0")
        store.commit("v1")  # nothing pinned generation 0: retired at once
        for generation in (0, 2):
            with pytest.raises(LookupError, match=f"generation {generation} is not live"):
                store.acquire(generation)
        assert store.stats()["pinned_readers"] == 0

    def test_a_held_pin_keeps_its_generation_live_across_two_commits(self):
        store = VersionStore("v0")
        held = store.acquire()
        store.commit("v1")
        store.commit("v2")
        assert store.stats()["live_snapshots"] == 2  # v0 (held) and v2
        with store.pin(0) as snapshot:
            assert snapshot.state == "v0" and not snapshot.retired
        with pytest.raises(LookupError):
            store.acquire(1)
        store.release(held)
        with pytest.raises(LookupError):
            store.acquire(0)

    def test_the_service_answers_at_a_generation_it_still_pins(self):
        dataset = make_german_syn(150, seed=3)
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        text = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        before = service.execute(text).value
        held = service.versions.acquire()
        credit = [1.0 - float(v) for v in dataset.database["Credit"].column("Credit")]
        commit = service.update_relation_columns({"Credit": {"Credit": credit}})
        assert commit == {"Credit"} and commit.generation == 1
        assert service.execute(text).value != before
        assert service.execute(text, generation=0).value == before
        service.versions.release(held)
        with pytest.raises(LookupError):
            service.execute(text, generation=0)


class TestCommit:
    def test_unpinned_superseded_snapshot_retires_immediately(self):
        store = VersionStore("v0")
        old = store.latest
        store.commit("v1")
        assert old.retired and old.state is None
        assert store.stats()["live_snapshots"] == 1

    def test_generations_strictly_increase(self):
        store = VersionStore("v0", generation=5)
        assert store.commit("v1").generation == 6
        assert store.commit("v2", generation=10).generation == 10
        with pytest.raises(ValueError, match="not after"):
            store.commit("v3", generation=10)

    def test_on_retire_hook_sees_each_retired_snapshot(self):
        retired = []
        store = VersionStore("v0", on_retire=lambda s: retired.append(s.generation))
        store.commit("v1")
        store.commit("v2")
        assert retired == [0, 1]


class TestStats:
    def test_counters_and_peaks(self):
        store = VersionStore("v0")
        with store.pin():
            with store.pin():
                store.commit("v1")
                stats = store.stats()
                assert stats["latest_generation"] == 1
                assert stats["commits"] == 1
                assert stats["live_snapshots"] == 2  # old one pinned twice
                assert stats["pinned_readers"] == 2
        stats = store.stats()
        assert stats["retired"] == 1
        assert stats["live_snapshots"] == 1
        assert stats["pinned_readers"] == 0
        assert stats["peak_live_snapshots"] == 2
        assert stats["peak_pinned_readers"] == 2

    def test_concurrent_pin_commit_storm_keeps_invariants(self):
        store = VersionStore(0)
        stop = threading.Event()
        errors: list[str] = []

        def reader():
            while not stop.is_set():
                with store.pin() as snapshot:
                    if snapshot.state is None or snapshot.retired:
                        errors.append("pinned snapshot was retired under a reader")

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for value in range(1, 200):
            store.commit(value)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert not errors, errors[:3]
        stats = store.stats()
        assert stats["commits"] == 199
        assert stats["pinned_readers"] == 0
        assert stats["live_snapshots"] == 1
        assert stats["retired"] == 199
