"""Size-bounded, stats-instrumented caches for cross-query state.

The service layer keeps six caches, all keyed by fingerprint components that
embed the **generation counters of the columns** each entry reads (see
:class:`~repro.service.session.HypeRService`): a commit makes every entry
reading a changed column unreachable, and the others serve the new generation
as they are — no carry pass, no re-keying.  Tags (the ``(relation,
attribute)`` columns an entry read) only let ``update_database`` free the
unreachable ones sooner (``evict_tagged``):

* **views** — materialised relevant views per ``Use`` specification, keyed
  by every column the view is built from;
* **estimators** — fitted :class:`~repro.core.estimator.PostUpdateEstimator`
  objects per estimator key, bounded both by entry count and by a *cost
  weight* (training rows × features): one giant estimator can evict many
  small ones, which entry-count LRU alone cannot express;
* **blocks** — the block-independent decomposition labels, keyed by the
  relations' lengths and the key, foreign-key and ``within`` columns;
* **kernels** — one :class:`~repro.relational.columnar.KernelCache` store per
  ``Use`` specification, living across commits, holding what the
  parameter variants of the plans over that view share: masks, index sets,
  encoded blocks, the backdoor covariates' share of each regressor's
  prediction, and each column's encoder and Gram-matrix blocks, keyed and
  tagged per entry.  Each is bounded by its own byte budget;
* **candidates** — how-to candidate enumerations per exact query identity;
* **results** — final query answers per exact query identity
  (:class:`TTLCache`), with an optional time-to-live for dashboard-style
  staleness bounds.

Every cache is thread-safe.  ``get_or_create`` is *per-key* single-flight:
concurrent callers asking for the same missing key build it exactly once,
while misses on other keys — and hits — proceed without waiting on the
build (the factory runs outside the cache lock).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

__all__ = ["CacheStats", "HashedKey", "LRUCache", "QueryCaches", "TTLCache"]


class HashedKey:
    """A deep key that hashes once: a cache miss hashes its key a dozen times."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashedKey) and self._hash == other._hash and self.key == other.key


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    name: str
    max_size: int
    size: int
    hits: int
    misses: int
    evictions: int
    weight: int = 0
    max_weight: int | None = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "max_size": self.max_size,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.max_weight is not None:
            out["weight"] = self.weight
            out["max_weight"] = self.max_weight
        return out


class LRUCache:
    """A thread-safe least-recently-used cache with instrumentation.

    ``max_size`` bounds the number of entries; inserting beyond the bound
    evicts the least recently *used* (read or written) entry.  ``get`` and
    ``get_or_create`` count hits/misses; evictions are counted separately so
    tests can assert the bound is enforced.

    Cost-aware bound
    ----------------
    ``weigher``/``max_weight`` add a second, size-weighted LRU bound: each
    entry's weight is computed once at insert time and eviction pops LRU
    entries while the total weight exceeds ``max_weight`` (at least one entry
    is always kept, so a single over-budget entry still caches).  The
    estimator cache uses training-rows × features as the weight.

    Tags
    ----
    ``get_or_create``/``put`` accept ``tags`` — hashable labels recording what
    an entry was built from (the service uses columns).
    :meth:`evict_tagged` drops exactly the entries whose tag sets intersect a
    given collection, which is what makes invalidation fine-grained.
    """

    def __init__(
        self,
        max_size: int,
        name: str = "cache",
        on_evict: Callable[[Hashable, Any], None] | None = None,
        *,
        weigher: Callable[[Any], int] | None = None,
        max_weight: int | None = None,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if max_weight is not None and max_weight < 1:
            raise ValueError("max_weight must be at least 1 when given")
        self.name = name
        self.max_size = max_size
        self.max_weight = max_weight
        #: called with (key, value) when an entry leaves the cache (LRU
        #: eviction, ``evict_tagged`` or ``clear``); must not call back into
        #: this cache.
        self.on_evict = on_evict
        self._weigher = weigher
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._weights: dict[Hashable, int] = {}
        self._tags: dict[Hashable, frozenset] = {}
        self._total_weight = 0
        self._lock = threading.RLock()
        self._pending: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- access ----------------------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            if key in self._entries and not self._expired(key):
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return default

    def _expired(self, key: Hashable) -> bool:
        """Hook for :class:`TTLCache`; plain entries never expire."""
        return False

    def get_or_create(
        self,
        key: Hashable,
        factory: Callable[[], Any],
        *,
        tags: Iterable[Hashable] = (),
    ) -> Any:
        """Return the cached value, building it with ``factory`` on a miss.

        Per-key single-flight: the first caller to miss a key becomes its
        builder and runs ``factory`` *outside* the cache lock; concurrent
        callers for the same key wait for that build, while hits and misses
        on other keys proceed unblocked.  If the builder raises, one waiter
        takes over as builder.
        """
        while True:
            with self._lock:
                if key in self._entries and not self._expired(key):
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return self._entries[key]
                waiter = self._pending.get(key)
                if waiter is None:
                    self._pending[key] = threading.Event()
                    self._misses += 1
                    break  # we are the builder
            waiter.wait()
            # Loop: either the value is cached now, or the builder failed (or
            # the entry was already evicted) and we take over as builder.
        try:
            value = factory()
        except BaseException:
            with self._lock:
                event = self._pending.pop(key, None)
            if event is not None:
                event.set()
            raise
        with self._lock:
            self._store(key, value, tags)
            event = self._pending.pop(key, None)
        if event is not None:
            event.set()
        return value

    def put(self, key: Hashable, value: Any, *, tags: Iterable[Hashable] = ()) -> None:
        """Insert or replace an entry (counts neither hit nor miss)."""
        with self._lock:
            self._store(key, value, tags)

    def _store(self, key: Hashable, value: Any, tags: Iterable[Hashable] = ()) -> None:
        if key in self._entries:
            self._drop(key)
        self._entries[key] = value
        self._entries.move_to_end(key)
        tag_set = frozenset(tags)
        if tag_set:
            self._tags[key] = tag_set
        if self._weigher is not None:
            weight = max(0, int(self._weigher(value)))
            self._weights[key] = weight
            self._total_weight += weight
        while len(self._entries) > self.max_size or (
            self.max_weight is not None
            and self._total_weight > self.max_weight
            and len(self._entries) > 1
        ):
            evicted_key = next(iter(self._entries))
            evicted_value = self._drop(evicted_key)
            self._evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_value)

    def _drop(self, key: Hashable) -> Any:
        """Remove an entry and its bookkeeping (lock held); return the value."""
        value = self._entries.pop(key)
        self._tags.pop(key, None)
        self._total_weight -= self._weights.pop(key, 0)
        return value

    def evict_tagged(self, tags: Iterable[Hashable]) -> int:
        """Drop every entry whose tag set intersects ``tags``; return the count.

        Untagged entries are treated as depending on nothing and survive.
        """
        wanted = frozenset(tags)
        if not wanted:
            return 0
        with self._lock:
            victims = [
                key for key, key_tags in self._tags.items() if key_tags & wanted
            ]
            dropped = [(key, self._drop(key)) for key in victims]
            self._evictions += len(dropped)
            for key, value in dropped:
                if self.on_evict is not None:
                    self.on_evict(key, value)
        return len(dropped)

    def clear(self) -> None:
        with self._lock:
            entries = list(self._entries.items()) if self.on_evict is not None else []
            self._entries.clear()
            self._tags.clear()
            self._weights.clear()
            self._total_weight = 0
            for key, value in entries:
                self.on_evict(key, value)

    # -- introspection ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries and not self._expired(key)

    def values(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._entries.values()))

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def total_weight(self) -> int:
        with self._lock:
            return self._total_weight

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                max_size=self.max_size,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                weight=self._total_weight,
                max_weight=self.max_weight,
            )


class TTLCache(LRUCache):
    """An :class:`LRUCache` whose entries can expire after ``ttl_seconds``.

    ``ttl_seconds=None`` never expires (pure LRU).  Expiry is lazy: an expired
    entry counts as a miss on access and is replaced by the rebuilt value
    (single-flight, like any other miss).  The result cache uses this as its
    staleness bound for repeated identical queries between invalidations.
    """

    def __init__(
        self,
        max_size: int,
        name: str = "cache",
        on_evict: Callable[[Hashable, Any], None] | None = None,
        *,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(max_size, name, on_evict)
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when given")
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._inserted_at: dict[Hashable, float] = {}

    def _expired(self, key: Hashable) -> bool:
        if self.ttl_seconds is None:
            return False
        inserted = self._inserted_at.get(key)
        return inserted is not None and self._clock() - inserted > self.ttl_seconds

    def _store(self, key: Hashable, value: Any, tags: Iterable[Hashable] = ()) -> None:
        # Stamp AFTER the base insert: replacing an existing (e.g. expired)
        # entry goes through _drop, which discards the key's old timestamp —
        # stamping first would lose the fresh one with it and make the
        # rebuilt entry immortal.  The new entry is most recently used, so
        # the base class can never evict it within the same call.
        super()._store(key, value, tags)
        self._inserted_at[key] = self._clock()

    def _drop(self, key: Hashable) -> Any:
        self._inserted_at.pop(key, None)
        return super()._drop(key)

    def clear(self) -> None:
        with self._lock:
            self._inserted_at.clear()
        super().clear()


class QueryCaches:
    """The bundle of caches one :class:`HypeRService` owns."""

    def __init__(
        self,
        *,
        estimator_size: int = 64,
        view_size: int = 16,
        block_size: int = 8,
        candidate_size: int = 64,
        result_size: int = 256,
        result_ttl_seconds: float | None = None,
        estimator_weigher: Callable[[Any], int] | None = None,
        estimator_max_weight: int | None = None,
    ) -> None:
        self.estimators = LRUCache(
            estimator_size,
            "estimators",
            weigher=estimator_weigher,
            max_weight=estimator_max_weight,
        )
        self.views = LRUCache(view_size, "views")
        self.blocks = LRUCache(block_size, "blocks")
        self.kernels = LRUCache(view_size, "kernels")
        self.candidates = LRUCache(candidate_size, "candidates")
        # result_size=0 disables result caching entirely (see HypeRService).
        self.results = TTLCache(
            max(1, result_size), "results", ttl_seconds=result_ttl_seconds
        )

    def all(self) -> tuple[LRUCache, ...]:
        return (
            self.estimators,
            self.views,
            self.blocks,
            self.kernels,
            self.candidates,
            self.results,
        )

    def clear(self) -> None:
        for cache in self.all():
            cache.clear()

    def evict_tagged(self, tags: Iterable[Hashable]) -> int:
        """Drop the entries built from any of ``tags``, the kernel stores' own included."""
        tags = frozenset(tags)
        dropped = sum(cache.evict_tagged(tags) for cache in self.all())
        return dropped + sum(store.evict_tagged(tags) for store in self.kernels.values())

    def stats(self) -> dict[str, dict[str, Any]]:
        return {cache.name: cache.stats().as_dict() for cache in self.all()}
