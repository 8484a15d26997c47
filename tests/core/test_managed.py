"""Tests for the writable index built over a tuple set (compaction lifecycle)."""

import numpy as np
import pytest

from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.errors import MaintenanceError, QueryError
from repro.obs import MetricsRecorder

from ..conftest import assert_matches_rebuild


def _tuples(n, seed=0, offset=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet(
        np.arange(offset, offset + n),
        rng.uniform(0, 100, n),
        rng.uniform(0, 100, n),
    )


def _delete_winner(managed, live, preference=Preference(1.0, 1.0)):
    winner = managed.query(preference, 1)[0].tid
    del live[winner]
    return managed.delete(winner)


class TestConstruction:
    def test_default_floor_is_half(self):
        # Compaction is due once the charged entries reach ceil(K / 2).
        managed = WritableRankedJoinIndex.build(_tuples(50), 7)
        live = {t.tid: t for t in _tuples(50)}
        assert [_delete_winner(managed, live) for _ in range(3)] == [6, 5, 4]
        assert managed.compaction_pauses == []
        assert _delete_winner(managed, live) == 7
        assert len(managed.compaction_pauses) == 1


class TestLifecycle:
    def test_insert_dedup(self):
        managed = WritableRankedJoinIndex.build(_tuples(30), 4)
        with pytest.raises(MaintenanceError, match="already live"):
            managed.insert(RankTuple(0, 1.0, 1.0))

    def test_delete_unknown(self):
        managed = WritableRankedJoinIndex.build(_tuples(30), 4)
        with pytest.raises(MaintenanceError, match="not live"):
            managed.delete(10**9)

    def test_insert_counters(self):
        recorder = MetricsRecorder()
        managed = WritableRankedJoinIndex.build(
            _tuples(200, seed=1), 3, recorder=recorder
        )
        managed.insert(RankTuple(10_000, 1000.0, 1000.0))  # new champion
        managed.insert(RankTuple(10_001, 0.001, 0.001))  # surely dominated
        assert recorder.counter("delta.inserts") == 2
        assert managed.delta.n_visible == 1
        assert managed.n_live == 202

    def test_deleting_pruned_tuple_keeps_guarantee(self):
        managed = WritableRankedJoinIndex.build(_tuples(200, seed=2), 4)
        managed.insert(RankTuple(10_000, 0.001, 0.001))
        managed.delete(10_000)
        assert managed.k_effective == 4
        assert managed.compaction_pauses == []

    def test_auto_rebuild_restores_guarantee(self):
        k = 4
        managed = WritableRankedJoinIndex.build(_tuples(300, seed=3), k)
        live = {t.tid: t for t in _tuples(300, seed=3)}
        # The first winner delete only consumes slack; the second makes
        # 2 * charged >= K, and the compaction it triggers restores it.
        assert _delete_winner(managed, live) == k - 1
        assert managed.compaction_pauses == []
        assert _delete_winner(managed, live) == k
        assert len(managed.compaction_pauses) == 1 and managed.delta.is_empty
        managed.check_invariants()
        assert_matches_rebuild(managed, live, k, k)

    def test_mixed_stream_stays_exact(self):
        k = 5
        managed = WritableRankedJoinIndex.build(_tuples(150, seed=4), k)
        live = {t.tid: t for t in _tuples(150, seed=4)}
        extra = _tuples(100, seed=5, offset=10_000)
        rng = np.random.default_rng(6)
        inserted = 0
        for step in range(120):
            if inserted < 100 and rng.uniform() < 0.6:
                live[extra.row(inserted).tid] = extra.row(inserted)
                managed.insert(extra.row(inserted))
                inserted += 1
            else:
                angle = float(rng.uniform(0, np.pi / 2))
                _delete_winner(managed, live, Preference.from_angle(angle))
        managed.check_invariants()
        assert managed.n_live == len(live) and managed.compaction_pauses
        assert_matches_rebuild(managed, live, k, managed.k_effective)

    def test_manual_rebuild(self):
        managed = WritableRankedJoinIndex.build(_tuples(80, seed=8), 4)
        managed.compact()
        assert len(managed.compaction_pauses) == 1 and managed.delta.is_empty
        assert managed.k_effective == 4

    def test_query_beyond_degraded_bound_raises(self):
        managed = WritableRankedJoinIndex.build(_tuples(200, seed=9), 4)
        winner = managed.query(Preference(1.0, 1.0), 1)[0].tid
        managed.delete(winner)
        assert managed.k_effective == 3
        with pytest.raises(QueryError, match="effective"):
            managed.query(Preference(1.0, 1.0), 4)
