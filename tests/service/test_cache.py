"""LRU cache semantics: bounds, eviction order, stats, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.service import LRUCache, QueryCaches


class TestLRUCache:
    def test_bound_is_enforced(self):
        cache = LRUCache(max_size=3)
        for i in range(5):
            cache.put(i, str(i))
        assert len(cache) == 3
        assert cache.evictions == 2
        assert 0 not in cache and 1 not in cache
        assert all(i in cache for i in (2, 3, 4))

    def test_least_recently_used_is_evicted_first(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh recency: "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_hit_miss_counters(self):
        cache = LRUCache(max_size=4, name="test")
        cache.get_or_create("k", lambda: 42)
        assert cache.get("k") == 42
        assert cache.get("absent") is None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 2  # the create miss and the absent get
        assert stats.size == 1
        assert stats.name == "test"
        assert 0.0 < stats.hit_rate < 1.0
        assert stats.as_dict()["hit_rate"] == round(stats.hit_rate, 4)

    def test_get_or_create_builds_once(self):
        cache = LRUCache(max_size=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("key", lambda: calls.append(1) or "built")
        assert value == "built"
        assert len(calls) == 1

    def test_clear_keeps_counters(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(max_size=0)

    def test_concurrent_get_or_create_single_flight(self):
        cache = LRUCache(max_size=4)
        built = []
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(
                cache.get_or_create("shared", lambda: built.append(1) or object())
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert all(r is results[0] for r in results)


class TestWeightedLRU:
    def test_weight_budget_evicts_lru_first(self):
        cache = LRUCache(max_size=10, weigher=len, max_weight=10)
        cache.put("a", "xxxx")  # weight 4
        cache.put("b", "xxxx")  # weight 4
        cache.put("c", "xxxx")  # weight 4 -> total 12 > 10, evict "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.total_weight == 8
        assert cache.evictions == 1

    def test_single_overweight_entry_still_caches(self):
        cache = LRUCache(max_size=10, weigher=len, max_weight=5)
        cache.put("big", "x" * 50)
        assert "big" in cache
        cache.put("small", "xx")  # forces "big" out
        assert "big" not in cache and "small" in cache

    def test_replacing_entry_updates_weight(self):
        cache = LRUCache(max_size=10, weigher=len, max_weight=100)
        cache.put("k", "x" * 30)
        cache.put("k", "x")
        assert cache.total_weight == 1

    def test_stats_report_weight(self):
        cache = LRUCache(max_size=4, name="w", weigher=len, max_weight=64)
        cache.put("k", "xyz")
        stats = cache.stats().as_dict()
        assert stats["weight"] == 3 and stats["max_weight"] == 64
        # unweighted caches keep their original stats shape
        assert "weight" not in LRUCache(max_size=4).stats().as_dict()

    def test_rejects_nonpositive_weight_budget(self):
        with pytest.raises(ValueError):
            LRUCache(max_size=4, weigher=len, max_weight=0)


class TestTaggedEviction:
    def test_evict_tagged_drops_only_matching_entries(self):
        cache = LRUCache(max_size=8)
        cache.put("v1", 1, tags=("Credit",))
        cache.put("v2", 2, tags=("Audit",))
        cache.put("v3", 3, tags=("Credit", "Audit"))
        cache.put("v4", 4)  # untagged: depends on nothing
        assert cache.evict_tagged({"Credit"}) == 2
        assert "v1" not in cache and "v3" not in cache
        assert "v2" in cache and "v4" in cache
        assert cache.evictions == 2

    def test_evict_tagged_runs_on_evict_hook(self):
        retired = []
        cache = LRUCache(max_size=8, on_evict=lambda k, v: retired.append(k))
        cache.get_or_create("a", lambda: 1, tags=("R",))
        cache.evict_tagged({"R"})
        assert retired == ["a"]

    def test_empty_tag_set_is_a_no_op(self):
        cache = LRUCache(max_size=8)
        cache.put("a", 1, tags=("R",))
        assert cache.evict_tagged(()) == 0
        assert "a" in cache


class TestTTLCache:
    def test_entries_expire_after_ttl(self):
        from repro.service import TTLCache

        now = [0.0]
        cache = TTLCache(max_size=4, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        now[0] = 10.5
        assert cache.get("k") is None  # expired counts as a miss
        assert "k" not in cache
        rebuilt = cache.get_or_create("k", lambda: "v2")
        assert rebuilt == "v2"

    def test_rebuilt_entry_expires_again(self):
        # regression: replacing an expired entry must refresh its timestamp,
        # not lose it (a lost stamp made rebuilt entries immortal)
        from repro.service import TTLCache

        now = [0.0]
        cache = TTLCache(max_size=4, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put("k", "v1")
        now[0] = 11.0
        assert cache.get("k") is None
        assert cache.get_or_create("k", lambda: "v2") == "v2"
        now[0] = 20.0
        assert cache.get("k") == "v2"  # still fresh relative to the rebuild
        now[0] = 22.0
        assert cache.get("k") is None  # second expiry cycle works too

    def test_none_ttl_never_expires(self):
        from repro.service import TTLCache

        now = [0.0]
        cache = TTLCache(max_size=4, ttl_seconds=None, clock=lambda: now[0])
        cache.put("k", "v")
        now[0] = 1e9
        assert cache.get("k") == "v"

    def test_rejects_nonpositive_ttl(self):
        from repro.service import TTLCache

        with pytest.raises(ValueError):
            TTLCache(max_size=4, ttl_seconds=0.0)


class TestQueryCaches:
    def test_bundle_layout_and_clear(self):
        caches = QueryCaches(estimator_size=2, view_size=2, block_size=2, candidate_size=2)
        caches.views.put("v", 1)
        caches.estimators.put("e", 2)
        stats = caches.stats()
        assert set(stats) == {
            "estimators", "views", "blocks", "kernels", "candidates", "results"
        }
        assert stats["views"]["size"] == 1
        caches.clear()
        assert len(caches.views) == 0 and len(caches.estimators) == 0
