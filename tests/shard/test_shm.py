"""Shared-memory snapshot transport: codec exactness and segment lifecycle.

The lifecycle tests watch ``/dev/shm`` directly: every segment a pool creates
must disappear by the time the owning object is closed — across pool start,
in-place generation updates, MVCC retirement, worker crashes and the service's
``close()``.  A leaked name here is host-wide state, not process state, so the
assertions are on the filesystem, not on Python counters.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import EngineConfig, HypeRService, WhatIfQuery
from repro.core.updates import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn
from repro.relational import post
from repro.shard import ShardPool, partition_database
from repro.shard.shm import (
    SegmentAttachment,
    SegmentManager,
    decode_database,
    encode_database,
    resolve_buffers,
    ship_buffers,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory is unavailable"
)


def segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(150, seed=3)


def make_query(dataset, i=0) -> WhatIfQuery:
    return WhatIfQuery(
        use=dataset.default_use,
        updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.05 * i))],
        output_attribute="Credit",
        output_aggregate="count",
        for_clause=(post("Credit") == 1),
    )


class TestCodec:
    def test_database_round_trip_is_value_identical(self, dataset):
        database = dataset.database
        manifest, buffers = encode_database(database)
        decoded = decode_database(manifest, buffers)
        assert decoded.relation_names == database.relation_names
        assert list(decoded.foreign_keys) == list(database.foreign_keys)
        for relation in database:
            other = decoded[relation.name]
            assert other.schema == relation.schema
            for attribute in relation.attribute_names:
                a, b = relation.column(attribute), other.column(attribute)
                if np.issubdtype(np.asarray(a).dtype, np.floating):
                    np.testing.assert_array_equal(a, b)  # NaN-aware, bitwise
                else:
                    assert list(a) == list(b)

    def test_inline_descriptor_round_trip(self, dataset):
        manifest, buffers = encode_database(dataset.database)
        descriptor = ship_buffers(buffers, None, generation=0)
        assert descriptor["kind"] == "inline"
        decoded = decode_database(manifest, resolve_buffers(descriptor))
        assert decoded.relation_names == dataset.database.relation_names

    def test_shm_descriptor_is_small_and_exact(self, dataset):
        manifest, buffers = encode_database(dataset.database)
        manager = SegmentManager()
        try:
            descriptor = manager.put(0, buffers)
            wire = len(pickle.dumps({"manifest": manifest, "descriptor": descriptor}))
            pickled = len(pickle.dumps(dataset.database))
            assert wire * 5 <= pickled  # names+offsets, not data
            attachment = SegmentAttachment()
            decoded = decode_database(
                manifest, resolve_buffers(descriptor, attachment)
            )
            for relation in dataset.database:
                np.testing.assert_array_equal(
                    relation.column("Credit") if "Credit" in relation else [],
                    decoded[relation.name].column("Credit")
                    if "Credit" in relation
                    else [],
                )
            attachment.close()
        finally:
            manager.close_all()


class TestSegmentManager:
    def test_release_unlinks_one_generation(self):
        manager = SegmentManager()
        d0 = manager.put(0, [np.arange(10.0)])
        d1 = manager.put(1, [np.arange(20.0)])
        assert segment_exists(d0["segment"]) and segment_exists(d1["segment"])
        assert manager.release(0) == 1
        assert not segment_exists(d0["segment"])
        assert segment_exists(d1["segment"])
        assert manager.release(0) == 0  # idempotent
        manager.close_all()
        assert not segment_exists(d1["segment"])
        stats = manager.stats()
        assert stats["live_segments"] == 0 and stats["live_bytes"] == 0
        assert stats["segments_created"] == stats["segments_unlinked"] == 2

    def test_attachment_views_survive_early_unlink(self):
        manager = SegmentManager()
        descriptor = manager.put(0, [np.arange(32.0)])
        attachment = SegmentAttachment()
        [view] = attachment.buffers(descriptor)
        assert not view.flags.writeable
        manager.release(0)  # unlink while the view is live
        assert not segment_exists(descriptor["segment"])
        np.testing.assert_array_equal(view, np.arange(32.0))  # mapping persists
        attachment.close()


class TestPoolLifecycle:
    def _pool(self, dataset, n_shards=2, **kwargs):
        plan = partition_database(dataset.database, dataset.causal_dag, n_shards)
        config = EngineConfig(regressor="linear")
        return ShardPool(plan, dataset.causal_dag, config, **kwargs), config

    def test_segments_created_on_start_and_unlinked_on_close(self, dataset):
        pool, _config = self._pool(dataset)
        pool.start()
        try:
            if pool.mode != "processes":
                pytest.skip(f"no worker processes: {pool.fallback_reason}")
            shm = pool.stats()["shm"]
            assert shm["live_segments"] >= 1 and shm["live_bytes"] > 0
            assert pool.run_batch([make_query(dataset)])[0].value is not None
        finally:
            names = [
                segment.name
                for group in pool._shm_manager._by_generation.values()
                for segment in group
            ] if pool._shm_manager is not None else []
            pool.close()
        assert names, "expected the pool to own at least one segment"
        assert not any(segment_exists(name) for name in names)

    def test_apply_update_ships_block_patch_and_release_unlinks(self, dataset):
        pool, _config = self._pool(dataset)
        pool.start()
        try:
            if pool.mode != "processes":
                pytest.skip(f"no worker processes: {pool.fallback_reason}")
            base = pool.run_batch([make_query(dataset)])[0].value
            relation = dataset.database["Credit"]
            credit = np.asarray(relation.column("Credit"), dtype=float).copy()
            credit[:5] = 1.0 - credit[:5]  # touch a handful of rows
            new_database = dataset.database.with_relation(
                relation.with_column("Credit", credit)
            )
            pool.apply_update(new_database, frozenset({("Credit", "Credit")}), generation=1)
            # the commit shipped a patch, not the relation (let alone the db)
            whole = len(pickle.dumps(relation, protocol=pickle.HIGHEST_PROTOCOL))
            assert 0 < pool.update_bytes_last < whole
            assert pool.generation == 1
            shm = pool.stats()["shm"]
            assert shm["segments_created"] >= 2  # snapshot + patch
            # retiring generation 0 unlinks its segments; workers keep serving
            assert pool.release_snapshot(0) >= 1
            updated = pool.run_batch([make_query(dataset)])[0].value
            fresh = ShardPool(
                new_database, dataset.causal_dag, EngineConfig(regressor="linear"),
                inline=True,
            ).start()
            try:
                assert updated == fresh.run_batch([make_query(dataset)])[0].value
                assert updated != base
            finally:
                fresh.close()
        finally:
            pool.close()
        assert pool.stats()["shm"] is None

    def test_worker_crash_leaves_no_segments(self, dataset):
        pool, _config = self._pool(dataset)
        pool.start()
        try:
            if pool.mode != "processes":
                pytest.skip(f"no worker processes: {pool.fallback_reason}")
            names = [
                segment.name
                for group in pool._shm_manager._by_generation.values()
                for segment in group
            ]
            victim = pool._processes[0]
            victim.terminate()
            victim.join(timeout=5.0)
            with pytest.raises(Exception):
                pool.run_batch([make_query(dataset)])
        finally:
            pool.close()
        assert not any(segment_exists(name) for name in names)


class TestServiceLifecycle:
    def test_update_retire_close_cycle_has_no_leaks(self, dataset):
        config = EngineConfig(regressor="linear")
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=2,
        )
        created: list[str] = []

        def snapshot_names() -> list[str]:
            pool = service._pool
            if pool is None or pool._shm_manager is None:
                return []
            return [
                segment.name
                for group in pool._shm_manager._by_generation.values()
                for segment in group
            ]

        try:
            service.start_pool()
            if service._pool is None or service._pool.mode != "processes":
                pytest.skip("no worker processes in this environment")
            created += snapshot_names()
            query = make_query(dataset)
            base = service.execute(query).value
            relation = dataset.database["Credit"]
            credit = np.asarray(relation.column("Credit"), dtype=float).copy()
            credit[:3] = 1.0 - credit[:3]
            service.update_database(
                dataset.database.with_relation(
                    relation.with_column("Credit", credit)
                )
            )
            created += snapshot_names()
            assert service.execute(query).value != base
            # the retired generation's segments are already gone (MVCC hook)
            shm = service._pool.stats()["shm"]
            assert shm["segments_unlinked"] >= 1
            exposition = service.metrics.render()
            assert "hyper_shm_bytes" in exposition
            assert "hyper_broadcast_bytes_total" in exposition
        finally:
            service.close()
        assert created, "expected the service's pool to create segments"
        assert not any(segment_exists(name) for name in created)
