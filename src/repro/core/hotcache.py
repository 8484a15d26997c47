"""Hot-region LRU cache for the query descent.

QueryRJI (Section 7) spends ``O(log l)`` on the binary-search descent
before touching any tuple.  Real preference workloads are heavily
skewed — a handful of weight ratios (e.g. "availability twice as
important as quality") account for most traffic — so the descent
repeatedly re-derives the same region for the same angle.
:class:`HotRegionCache` memoizes ``preference angle -> value`` with LRU
eviction, letting repeated preferences skip the descent entirely (a
disk query's ``btree_nodes`` is 0 on a hit).

Keys are *exact* float angles: two preferences share an entry only when
their normalized angles are bit-equal, so a hit can never change an
answer.  The disk tier, whose descent walks B+-tree pages, is its one
user (a ``bisect`` over an in-memory index is cheaper than the lock);
it calls :meth:`clear` to replay a cold start.

Thread-safe: a single lock guards the ordered map, so the serving
wrappers can share one cache across worker threads.  Counters are
plain ints read without the lock (torn reads are acceptable for
monitoring); they feed the ``rji.cache.hits`` / ``rji.cache.misses`` /
``rji.cache.evictions`` metrics (see ``repro/obs/names.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from ..errors import ConstructionError

__all__ = ["MISS", "HotRegionCache"]

#: Sentinel returned by :meth:`HotRegionCache.get` on a miss.  A
#: dedicated object, not ``None``: cached values may legitimately be
#: falsy (region id 0 is the first region).
MISS: Any = object()


class HotRegionCache:
    """A bounded LRU map from preference angle to a cached query value."""

    __slots__ = ("capacity", "hits", "misses", "evictions", "_lock", "_map")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConstructionError(
                f"cache capacity must be a positive integer, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._map: OrderedDict[float, Any] = OrderedDict()

    def get(self, key: float) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        A hit refreshes the entry's recency.
        """
        with self._lock:
            try:
                value = self._map[key]
            except KeyError:
                self.misses += 1
                return MISS
            self._map.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: float, value: Any) -> bool:
        """Insert (or refresh) an entry; returns True if one was evicted."""
        with self._lock:
            self._map[key] = value
            self._map.move_to_end(key)
            if len(self._map) > self.capacity:
                self._map.popitem(last=False)
                self.evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry; keeps counters."""
        with self._lock:
            self._map.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """Monitoring view: capacity, size and lifetime counters.

        The serving tier inlines this into the ``stats`` wire op when
        the served index exposes the cache, so a live ``repro.obs top``
        view can show the hit rate next to the latency percentiles.
        """
        return {
            "capacity": self.capacity,
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HotRegionCache(capacity={self.capacity}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
