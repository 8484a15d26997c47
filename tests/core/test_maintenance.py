"""Maintenance through ``build``: buffered writes equal a rebuild.

``WritableRankedJoinIndex.build(tuples, k)`` with no ``wal=`` writes
through the in-memory log; every answer, buffered or compacted, is bit-identical to
``RankedJoinIndex.build`` over the live tuples with the same options.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.errors import InvalidQueryError, MaintenanceError

from ..conftest import assert_matches_rebuild


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))


def _assert_exact(managed, live, **options):
    """At the largest ``k`` the tier still guarantees."""
    assert_matches_rebuild(
        managed, {t.tid: t for t in live}, managed.k_bound, managed.k_effective,
        **options,
    )


def _stream(full, split, k, **options):
    """Build over ``full[:split]``, insert the rest; exact buffered and compacted."""
    managed = WritableRankedJoinIndex.build(
        full[np.arange(split)], k, compaction_threshold=1000, **options
    )
    for i in range(split, len(full)):
        assert managed.insert(full.row(i)) is True
    _assert_exact(managed, full, **options)
    managed.compact()
    managed.check_invariants()
    _assert_exact(managed, full, **options)
    return managed


class TestInsertValidation:
    def test_duplicate_tid_rejected(self):
        managed = WritableRankedJoinIndex.build(_uniform(30), 3)
        existing = int(managed.index.dominating.tids[0])
        with pytest.raises(MaintenanceError, match="already"):
            managed.insert(RankTuple(existing, 1.0, 1.0))

    def test_non_finite_rank_rejected(self):
        managed = WritableRankedJoinIndex.build(_uniform(30), 3)
        with pytest.raises(MaintenanceError, match="finite"):
            managed.insert(RankTuple(999, float("nan"), 1.0))

    def test_dominated_insert_is_noop(self):
        ts = RankTupleSet.from_pairs([10.0, 9.0, 8.0], [10.0, 9.0, 8.0])
        managed = WritableRankedJoinIndex.build(ts, 2)
        regions_before = managed.index.regions
        managed.insert(RankTuple(100, 0.5, 0.5))
        assert managed.delta.is_transparent and managed.k_effective == 2
        assert managed.index.regions == regions_before


class TestInsertCorrectness:
    def test_stream_matches_rebuild(self):
        full = _uniform(150, seed=3)
        managed = _stream(full, 100, 6)
        assert managed.index.n_regions == RankedJoinIndex.build(full, 6).n_regions

    def test_insert_new_global_winner(self):
        managed = WritableRankedJoinIndex.build(_uniform(50, seed=4), 3)
        managed.insert(RankTuple(1000, 1000.0, 1000.0))
        for angle in (0.1, 0.8, 1.4):
            assert managed.query(Preference.from_angle(angle), 1)[0].tid == 1000

    def test_insert_into_ordered_variant(self):
        _stream(_uniform(80, seed=5), 60, 4, variant="ordered")

    def test_insert_into_merged_variant(self):
        _stream(_uniform(80, seed=6), 60, 4, merge_slack=3)

    def test_insert_when_index_smaller_than_k(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0], [2.0, 1.0])
        managed = WritableRankedJoinIndex.build(ts, 5)
        managed.insert(RankTuple(10, 3.0, 3.0))
        results = managed.query(Preference(1.0, 1.0), 3)
        assert results[0].tid == 10
        assert len(results) == 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 30))
    def test_insert_equals_rebuild_property(self, seed, k, n):
        # Integer coordinates: exact score ties at and between regions.
        rng = np.random.default_rng(seed)
        s1 = rng.integers(0, 8, n).astype(float)
        s2 = rng.integers(0, 8, n).astype(float)
        _stream(RankTupleSet(np.arange(n), s1, s2), max(1, n // 2), k)


class TestDelete:
    def test_unknown_tid_rejected(self):
        managed = WritableRankedJoinIndex.build(_uniform(30), 3)
        with pytest.raises(MaintenanceError, match="is not live"):
            managed.delete(10**9)

    def test_delete_region_tuple_lowers_bound_and_stays_exact(self):
        ts = _uniform(200, seed=8)
        managed = WritableRankedJoinIndex.build(ts, 5)
        victim = int(managed.index.regions[0].tids[0])
        assert managed.delete(victim) == 5 - 1
        _assert_exact(managed, ts[ts.tids != victim])

    def test_query_beyond_effective_bound_rejected(self):
        managed = WritableRankedJoinIndex.build(_uniform(100, seed=9), 4)
        victim = int(managed.index.regions[0].tids[0])
        effective = managed.delete(victim)
        with pytest.raises(InvalidQueryError, match="effective bound"):
            managed.query(Preference(1.0, 1.0), effective + 1)

    def test_interleaved_insert_and_delete(self):
        full = _uniform(120, seed=10)
        managed = WritableRankedJoinIndex.build(full[np.arange(100)], 4)
        victim = int(managed.index.regions[0].tids[0])
        managed.delete(victim)
        for i in range(100, 120):
            managed.insert(full.row(i))
        managed.check_invariants()
        assert managed.k_effective == 3
        _assert_exact(managed, full[full.tids != victim])
