"""The columnar RegionStore mirrors the boxed region list exactly."""

import threading

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.regionstore import RegionStore
from repro.core.sweep import Region, sweep_regions
from repro.core.tuples import RankTupleSet
from repro.errors import ConstructionError


def _tuples(n=50, seed=3):
    rng = np.random.default_rng(seed)
    return RankTupleSet(
        np.arange(n, dtype=np.int64), rng.random(n), rng.random(n)
    )


def _store(n=200, k=8, seed=3):
    index = RankedJoinIndex.build(_tuples(n, seed), k)
    return index, index.store


class TestConstruction:
    def test_round_trips_regions(self):
        dominating = _store()[0].dominating
        regions, _ = sweep_regions(dominating, 8)
        packed = RegionStore.from_regions(regions, dominating)
        assert packed.to_regions() == regions

    def test_single_region_materializes(self):
        region = store_region = Region(0.0, float(np.pi / 2), (4, 2, 9))
        tuples = RankTupleSet(
            np.array([2, 4, 9]),
            np.array([0.5, 0.9, 0.1]),
            np.array([0.4, 0.2, 0.8]),
        )
        store = RegionStore.from_regions([region], tuples)
        assert len(store) == 1
        assert store.n_positions == 3
        assert store.to_regions() == [store_region]

    def test_columns_follow_region_order(self):
        index, store = _store()
        flat = [tid for r in index.regions for tid in r.tids]
        assert store.tids.tolist() == flat
        by_tid = {
            int(t): (float(a), float(b))
            for t, a, b in zip(
                index.dominating.tids,
                index.dominating.s1,
                index.dominating.s2,
            )
        }
        for row, tid in enumerate(flat):
            assert (store.s1[row], store.s2[row]) == by_tid[tid]

    def test_unknown_tid_raises(self):
        tuples = _tuples(5)
        bad = [Region(0.0, float(np.pi / 2), (0, 1, 999))]
        with pytest.raises(ConstructionError, match="unknown tuple id 999"):
            RegionStore.from_regions(bad, tuples)

    def test_no_regions_raises(self):
        with pytest.raises(ConstructionError, match="at least one region"):
            RegionStore.from_regions([], _tuples(5))

    def test_empty_composition_allowed(self):
        empty = RankTupleSet(
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        )
        store = RegionStore.from_regions(
            [Region(0.0, float(np.pi / 2), ())], empty
        )
        assert store.n_positions == 0
        assert store.rows(0) == ([], [])


class TestLookups:
    def test_region_id_matches_interval(self):
        _, store = _store()
        regions = store.to_regions()
        rng = np.random.default_rng(11)
        angles = rng.uniform(0.0, np.pi / 2, 200)
        for angle in angles:
            rid = store.region_id(float(angle))
            assert regions[rid].lo <= angle
            assert angle < regions[rid].hi or rid == len(store) - 1

    def test_region_id_boundaries_go_right(self):
        # An angle exactly on a separating point belongs to the region
        # it opens, matching searchsorted side="right".
        _, store = _store()
        for rid, low in enumerate(store.lows_list):
            assert store.region_id(low) == rid + 1

    def test_rows_are_negated_tid_triples(self):
        # A permutation of the region's tids, in non-decreasing reach
        # order, each row carrying its own tuple's rank values.
        index, store = _store()
        for rid, region in enumerate(index.regions):
            rows, reach = store.rows(rid)
            assert sorted(-neg for _, _, neg in rows) == sorted(region.tids)
            assert reach == sorted(reach) and len(reach) == len(rows)
            start, stop = store.span(rid)
            column = {
                tid: (a, b)
                for tid, a, b in zip(
                    store.tids[start:stop].tolist(),
                    store.s1[start:stop].tolist(),
                    store.s2[start:stop].tolist(),
                )
            }
            assert all(column[-neg] == (a, b) for a, b, neg in rows)

    def test_reach_counts_rows_beating_at_both_ends(self):
        # The count is exactly the rows whose score beats the row's by
        # more than the margin at both region ends.
        _, store = _store()
        for rid in range(len(store)):
            rows, reach = store.rows(rid)
            lo, hi = float(store.lo[rid]), float(store.hi[rid])
            margin = 1e-9 * max(abs(a) + abs(b) for a, b, _ in rows)

            def score(row, angle):
                return np.cos(angle) * row[0] + np.sin(angle) * row[1]

            expected = [
                sum(
                    score(other, lo) - score(row, lo) > margin
                    and score(other, hi) - score(row, hi) > margin
                    for other in rows
                )
                for row in rows
            ]
            assert reach == expected

    def test_rows_cached(self):
        _, store = _store()
        assert store.rows(0) is store.rows(0)

    def test_rows_and_reach_share_one_cache_slot(self):
        # One cached pair per region: concurrent first touches all see
        # rows together with their own reach, never one without the other.
        _, store = _store()
        seen = []
        barrier = threading.Barrier(4)

        def touch():
            barrier.wait()
            seen.extend(store.rows(rid) for rid in range(len(store)))

        threads = [threading.Thread(target=touch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for rid in range(len(store)):
            pair = store.rows(rid)
            assert pair is store.rows(rid)
            rows, reach = pair
            assert len(rows) == len(reach) == len(store.to_regions()[rid].tids)
        for rows, reach in seen:
            assert len(rows) == len(reach) and reach == sorted(reach)

    def test_ordered_store_keeps_stored_order(self):
        index = RankedJoinIndex.build(_tuples(200, 3), 8, variant="ordered")
        store = index.store
        assert store.ordered
        for rid, region in enumerate(index.regions):
            rows, reach = store.rows(rid)
            assert reach is None
            assert [-neg for _, _, neg in rows] == list(region.tids)
            assert store.candidates(rid, 0.6, 0.8, 1) is rows


class TestAccounting:
    def test_len_and_positions(self):
        index, store = _store()
        assert len(store) == len(index.regions)
        assert store.n_positions == sum(
            len(r.tids) for r in index.regions
        )

    def test_nbytes_counts_all_columns(self):
        _, store = _store()
        assert store.nbytes >= (
            store.tids.nbytes + store.s1.nbytes + store.s2.nbytes
        )
