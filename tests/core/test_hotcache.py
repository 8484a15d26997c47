"""The hot-region descent cache: LRU semantics and query-path wiring."""

import threading

import numpy as np
import pytest

from repro.core.hotcache import MISS, HotRegionCache
from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.errors import ConstructionError
from repro.obs import MetricsRecorder
from repro.storage.diskindex import DiskRankedJoinIndex


def _tuples(n=300, seed=3):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


class TestLRUSemantics:
    def test_miss_then_hit(self):
        cache = HotRegionCache(4)
        assert cache.get(0.5) is MISS
        cache.put(0.5, 7)
        assert cache.get(0.5) == 7
        assert cache.hits == 1
        assert cache.misses == 1

    def test_miss_sentinel_distinguishes_falsy_values(self):
        cache = HotRegionCache(2)
        cache.put(0.1, 0)  # region id 0 is a legitimate cached value
        assert cache.get(0.1) == 0
        assert cache.get(0.1) is not MISS

    def test_eviction_drops_least_recently_used(self):
        cache = HotRegionCache(2)
        assert cache.put(1.0, "a") is False
        assert cache.put(2.0, "b") is False
        cache.get(1.0)  # refresh 1.0; 2.0 becomes the LRU entry
        assert cache.put(3.0, "c") is True
        assert cache.get(2.0) is MISS
        assert cache.get(1.0) == "a"
        assert cache.get(3.0) == "c"
        assert cache.evictions == 1

    def test_capacity_bound_holds(self):
        cache = HotRegionCache(8)
        for i in range(100):
            cache.put(float(i), i)
        assert len(cache) == 8
        assert cache.evictions == 92

    def test_clear_empties_but_keeps_counters(self):
        cache = HotRegionCache(4)
        cache.put(1.0, 1)
        cache.get(1.0)
        cache.get(2.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.get(1.0) is MISS  # cleared entries are gone

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConstructionError, match="capacity"):
            HotRegionCache(0)

    def test_snapshot_shape(self):
        cache = HotRegionCache(3)
        cache.put(1.0, 1)
        cache.get(1.0)
        assert cache.snapshot() == {
            "capacity": 3,
            "size": 1,
            "hits": 1,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 1.0,
        }

    def test_thread_safety_under_contention(self):
        cache = HotRegionCache(16)
        errors = []

        def worker(offset):
            try:
                for i in range(500):
                    key = float((i + offset) % 40)
                    if cache.get(key) is MISS:
                        cache.put(key, int(key))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(j * 13,)) for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        assert cache.hits + cache.misses == 4 * 500


class TestQueryPathWiring:
    """The cache serves the disk tier, where a descent walks B+-tree
    pages; the in-memory index's ``bisect`` descent is cheaper than the
    cache's locked LRU, so it has none."""

    def test_repeat_preference_hits_and_skips_descent(self):
        recorder = MetricsRecorder()
        disk = DiskRankedJoinIndex(
            RankedJoinIndex.build(_tuples(), 10), cache_size=8, recorder=recorder
        )
        first = disk.query((2.0, 1.0), 5)
        assert disk.last_query.btree_nodes > 0  # real descent
        again = disk.query((2.0, 1.0), 5)
        assert again == first
        # The hit skips the B+-tree descent entirely.
        assert disk.last_query.btree_nodes == 0
        counters = recorder.snapshot()["counters"]
        assert counters["rji.cache.hits"] == 1
        assert counters["rji.cache.misses"] == 1

    def test_cached_answers_identical_to_uncached(self):
        tuples = _tuples(400, seed=11)
        plain = RankedJoinIndex.build(tuples, 12)
        cached = DiskRankedJoinIndex(plain, cache_size=4)
        rng = np.random.default_rng(5)
        angles = rng.uniform(0.0, np.pi / 2, 60)
        prefs = [(float(np.cos(a)), float(np.sin(a))) for a in angles]
        # Repeat the skew: 3 distinct angles fit the 4 slots (hits);
        # the 60-distinct tail overflows them (evictions).
        workload = prefs[:3] * 10 + prefs
        for pref in workload:
            assert cached.query(pref, 6) == plain.query(pref, 6)
        assert cached.cache is not None
        assert cached.cache.hits > 0
        assert cached.cache.evictions > 0  # 60 distinct > 4 slots

    def test_evictions_are_counted_and_reset_io_empties_the_cache(self):
        recorder = MetricsRecorder()
        disk = DiskRankedJoinIndex(
            RankedJoinIndex.build(_tuples(), 10), cache_size=1, recorder=recorder
        )
        disk.query((2.0, 1.0), 5)
        disk.query((1.0, 2.0), 5)  # another region: the one slot turns over
        assert recorder.snapshot()["counters"]["rji.cache.evictions"] == 1
        disk.reset_io()
        assert len(disk.cache) == 0

    def test_cache_disabled_by_default(self):
        index = RankedJoinIndex.build(_tuples(), 10)
        recorder = MetricsRecorder()
        disk = DiskRankedJoinIndex(index, recorder=recorder)
        assert disk.cache is None
        disk.query((2.0, 1.0), 5)
        counters = recorder.snapshot()["counters"]
        assert "rji.cache.hits" not in counters
        assert "rji.cache.misses" not in counters
        with pytest.raises(TypeError):
            RankedJoinIndex.build(_tuples(), 10, cache_size=8)
