"""Merged (base ∪ delta) answers are bit-identical to a rebuild.

The delta store is pure write-path plumbing: for every query variant
(scalar, batch, ordered) the merged answer over ``(base \\ tombstones)
∪ inserts`` must match a :class:`RankedJoinIndex` built from scratch
over the same logical tuple set — same floats, same tie resolution —
whenever the exact-merge precondition ``k + charged <= K_effective``
holds, where only entries hiding a tuple of the base's dominating set
are charged.  Past the precondition the query must fail typed, never
return an approximate answer.
"""

import math
import zlib

import numpy as np
import pytest

from repro.baselines.fullscan import FullScanTopK
from repro.core.delta import DeltaStore, SupportsWal
from repro.core.index import RankedJoinIndex
from repro.core.scoring import as_preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.datagen.preferences import random_preferences
from repro.errors import InvalidQueryError, MaintenanceError

WORKLOADS = ["uniform", "grid", "anticorrelated"]


def _workload(kind, n, rng):
    if kind == "uniform":
        s1, s2 = rng.random(n), rng.random(n)
    elif kind == "grid":
        s1 = rng.integers(0, 8, n).astype(float)
        s2 = rng.integers(0, 8, n).astype(float)
    else:  # anticorrelated
        s1 = rng.random(n)
        s2 = 1.0 - s1 + rng.normal(0.0, 0.05, n)
    return RankTupleSet(np.arange(n, dtype=np.int64), s1, s2)


def _random_delta(pool, delta, rng, *, n_inserts, n_deletes):
    """Mutate pool+delta with fresh inserts and deletes of live tids."""
    next_tid = max(pool) + 1
    for _ in range(n_inserts):
        t = RankTuple(next_tid, float(rng.random()), float(rng.random()))
        delta.insert(t, 0)
        pool[next_tid] = t
        next_tid += 1
    for victim in rng.choice(
        sorted(pool), size=min(n_deletes, len(pool) - 1), replace=False
    ):
        delta.delete(int(victim), 0)
        pool.pop(int(victim))


def _reference(pool, k_bound, variant="standard"):
    return RankedJoinIndex.build(sorted(pool.values()), k_bound,
                                 variant=variant)


@pytest.mark.parametrize("kind", WORKLOADS)
def test_merged_scalar_query_matches_rebuild(kind):
    rng = np.random.default_rng(zlib.crc32(repr(kind).encode()))
    for trial in range(4):
        tuples = _workload(kind, int(rng.integers(50, 300)), rng)
        index = RankedJoinIndex.build(tuples, 16)
        pool = {int(t.tid): t for t in tuples}
        delta = DeltaStore()
        index.attach_delta(delta)
        _random_delta(pool, delta, rng, n_inserts=8, n_deletes=3)
        reference = _reference(pool, 16)
        for preference in random_preferences(30, seed=trial):
            assert index.query(preference, 7) == reference.query(
                preference, 7
            )


@pytest.mark.parametrize("kind", WORKLOADS)
def test_merged_batch_query_matches_scalar(kind):
    rng = np.random.default_rng(zlib.crc32(repr((kind, "batch")).encode()))
    tuples = _workload(kind, 250, rng)
    index = RankedJoinIndex.build(tuples, 14)
    pool = {int(t.tid): t for t in tuples}
    delta = DeltaStore()
    index.attach_delta(delta)
    _random_delta(pool, delta, rng, n_inserts=10, n_deletes=4)
    reference = _reference(pool, 14)
    preferences = random_preferences(60, seed=11)
    batch = index.query_batch(preferences, 6)
    assert batch == [reference.query(p, 6) for p in preferences]
    assert batch == [index.query(p, 6) for p in preferences]


def test_merged_ordered_variant_matches_rebuild():
    rng = np.random.default_rng(31)
    tuples = _workload("uniform", 200, rng)
    index = RankedJoinIndex.build(tuples, 12, variant="ordered")
    pool = {int(t.tid): t for t in tuples}
    delta = DeltaStore()
    index.attach_delta(delta)
    _random_delta(pool, delta, rng, n_inserts=6, n_deletes=2)
    reference = _reference(pool, 12, variant="ordered")
    for preference in random_preferences(40, seed=13):
        assert index.query(preference, 5) == reference.query(preference, 5)


def test_empty_delta_is_a_noop():
    rng = np.random.default_rng(7)
    tuples = _workload("uniform", 150, rng)
    bare = RankedJoinIndex.build(tuples, 10)
    attached = RankedJoinIndex.build(tuples, 10)
    attached.attach_delta(DeltaStore())
    for preference in random_preferences(25, seed=3):
        assert attached.query(preference, 6) == bare.query(preference, 6)
    assert attached.query_batch(
        random_preferences(10, seed=4), 6
    ) == bare.query_batch(random_preferences(10, seed=4), 6)


def test_tombstones_consume_exact_merge_slack():
    """``k + charged > K_effective`` fails typed, never approximates."""
    rng = np.random.default_rng(5)
    tuples = _workload("uniform", 120, rng)
    index = RankedJoinIndex.build(tuples, 8)
    delta = DeltaStore()
    index.attach_delta(delta)
    slack = index.k_effective
    for tid in index.dominating.tids[:4].tolist():
        delta.delete(tid, 0)
    assert delta.view().n_charged == 4
    assert index.query((0.5, 0.5), slack - 4)  # still exact
    with pytest.raises(InvalidQueryError, match="compact"):
        index.query((0.5, 0.5), slack - 3)


def test_non_skyband_tombstones_consume_no_slack():
    """Lemma 2: deleting a K-dominated tuple cannot change any top-K."""
    rng = np.random.default_rng(5)
    tuples = _workload("uniform", 120, rng)
    index = RankedJoinIndex.build(tuples, 8)
    pool = {int(t.tid): t for t in tuples}
    delta = DeltaStore()
    index.attach_delta(delta)
    indexed = set(index.dominating.tids.tolist())
    outside = [tid for tid in sorted(pool) if tid not in indexed]
    assert len(outside) >= 20
    for tid in outside[:20]:
        delta.delete(tid, 0)
        del pool[tid]
    view = delta.view()
    assert view.n_tombstones == 20 and view.n_charged == 0
    assert view.is_transparent and not view.is_empty
    reference = _reference(pool, 8)
    preferences = random_preferences(30, seed=2)
    assert index.query_batch(preferences, 8) == reference.query_batch(
        preferences, 8
    )
    for preference in preferences:
        assert index.query(preference, 8) == reference.query(preference, 8)


def test_insert_then_delete_in_one_window_costs_no_slack():
    """The tombstone of a tuple the base never held hides nothing."""
    rng = np.random.default_rng(17)
    tuples = _workload("uniform", 150, rng)
    bare = RankedJoinIndex.build(tuples, 8)
    index = RankedJoinIndex.build(tuples, 8)
    delta = DeltaStore()
    index.attach_delta(delta)
    delta.insert(RankTuple(9000, 2.0, 2.0), 1)  # would top every answer
    assert delta.view().n_visible == 1
    delta.delete(9000, 2)
    view = delta.view()
    assert view.n_tombstones == 1 and view.n_ops == 1  # no insert left
    assert view.n_charged == 0 and view.is_transparent
    preferences = random_preferences(20, seed=6)
    # k = K: at the parent commit the lone tombstone made this raise.
    assert index.query_batch(preferences, 8) == bare.query_batch(preferences, 8)
    for preference in preferences:
        assert index.query(preference, 8) == bare.query(preference, 8)
        assert (
            index.explain(preference, 8).results
            == bare.explain(preference, 8).results
        )


def test_unattached_delta_stays_conservative_until_attached():
    """No base, no Lemma 2: everything is charged and visible; attaching
    (the e2e layer replay populates first, attaches second) re-classifies."""
    rng = np.random.default_rng(23)
    tuples = _workload("uniform", 150, rng)
    index = RankedJoinIndex.build(tuples, 6)
    indexed = set(index.dominating.tids.tolist())
    outside = next(t for t in range(150) if t not in indexed)
    inside = int(index.dominating.tids[0])
    delta = DeltaStore()
    delta.delete(outside, 1)
    delta.delete(inside, 2)
    delta.insert(RankTuple(500, -1.0, -1.0), 3)  # under every base tuple
    delta.insert(RankTuple(501, 0.99, 0.99), 4)
    assert (delta.view().n_charged, delta.view().n_visible) == (4, 2)
    assert delta.view().charged == {outside, inside, 500, 501}
    index.attach_delta(delta)
    view = delta.view()
    assert view.n_charged == 1 and view.n_visible == 1
    assert view.charged == {inside}
    assert list(view.visible) == [501]


# Four would-be dominators and low filler under K = 4: an insert that
# *ties* C on one rank value is strictly dominated only three times, so
# it can still take rank 4 — a non-strict rule would hide it.
_STRICT_BASE = [
    RankTuple(10, 0.95, 0.95),
    RankTuple(11, 0.90, 0.90),
    RankTuple(12, 0.85, 0.85),
    RankTuple(13, 0.80, 0.80),  # C
] + [RankTuple(20 + i, 0.05 * i, 0.3 - 0.05 * i) for i in range(6)]
_EDGE_PREFERENCES = [
    0.0,
    (1.0, 0.0),
    1e-12,
    math.pi / 2 - 1e-12,
    math.pi / 2,
    (0.0, 1.0),
]


@pytest.mark.parametrize("tid", [5, 50], ids=["lower-tid", "higher-tid"])
@pytest.mark.parametrize(
    "s1,s2", [(0.80, 0.5), (0.5, 0.80)], ids=["ties-s1", "ties-s2"]
)
def test_insert_tying_a_dominator_stays_visible(tid, s1, s2):
    index = RankedJoinIndex.build(_STRICT_BASE, 4)
    delta = DeltaStore()
    index.attach_delta(delta)
    tied = RankTuple(tid, s1, s2)
    below = RankTuple(tid + 1, s1 - 0.01, s2 - 0.01)  # strictly under C too
    delta.insert(tied, 1)
    delta.insert(below, 2)
    assert list(delta.view().visible) == [tid]
    live = sorted(_STRICT_BASE + [tied, below])
    rebuilt = RankedJoinIndex.build(live, 4)
    # k = n turns the scan's partial selection off: its full lexsort is
    # the canonical order, and any prefix of it is the oracle.
    scan = FullScanTopK(RankTupleSet.from_tuples(live))
    for k in (1, 3, 4):
        for preference in _EDGE_PREFERENCES:
            answer = index.query(preference, k)
            assert answer == scan.query(as_preference(preference), len(live))[:k]
            assert index.query_batch([preference], k) == [answer]
            assert list(index.explain(preference, k).results) == answer
            # The build prunes by (s1 >=, s2 >) dominance, so on the s1
            # axis itself a rebuild ranks C over an s1-tying insert
            # whatever the tids say; the merge keeps the canonical order.
            on_s1_axis = preference in (0.0, (1.0, 0.0))
            if not (on_s1_axis and k == 4 and (tid, s1) == (5, 0.80)):
                assert answer == rebuilt.query(preference, k)
    if (tid, s1) == (5, 0.80):
        assert [r.tid for r in index.query(0.0, 4)] == [10, 11, 12, 5]


def test_insert_supersedes_base_copy():
    """A buffered insert hides the base copy of the same tid.

    WAL replay onto an image saved mid-compaction revisits records the
    image already reflects; without the supersede rule the tuple would
    be served twice.
    """
    tuples = [RankTuple(i, 0.1 * i, 0.9 - 0.1 * i) for i in range(8)]
    index = RankedJoinIndex.build(tuples, 4)
    delta = DeltaStore()
    index.attach_delta(delta)
    # Replay an insert for a tid the base already holds, with new values.
    delta.replay("insert", RankTuple(7, 0.95, 0.95))
    results = index.query((0.5, 0.5), 3)
    assert [r.tid for r in results].count(7) == 1
    assert results[0].tid == 7
    assert results[0].score == pytest.approx(0.95)
    batch = index.query_batch([(0.5, 0.5)], 3)
    assert batch == [results]


def test_delete_then_reinsert_uses_new_values():
    tuples = [RankTuple(i, 0.2, 0.2) for i in range(6)]
    index = RankedJoinIndex.build(tuples, 3)
    delta = DeltaStore()
    index.attach_delta(delta)
    delta.delete(2, 1)
    delta.insert(RankTuple(2, 0.8, 0.8), 2)
    results = index.query((0.5, 0.5), 2)
    assert results[0].tid == 2
    assert results[0].score == pytest.approx(0.8)
    # The tombstone coexists with the insert; the pair still counts once.
    assert (delta.view().n_tombstones, delta.view().n_ops) == (1, 2)


def test_clear_upto_keeps_entries_past_the_snapshot():
    delta = DeltaStore()
    delta.insert(RankTuple(1, 0.1, 0.1), lsn=3)
    delta.insert(RankTuple(2, 0.2, 0.2), lsn=7)
    delta.delete(9, lsn=5)
    delta.delete(10, lsn=8)
    delta.clear_upto(6)
    assert [t.tid for t in delta.pending_inserts()] == [2]
    assert not delta.tombstoned(9) and delta.tombstoned(10)
    delta.clear_upto(8)
    assert delta.view().is_empty


def test_delta_rejects_bad_writes():
    delta = DeltaStore()
    delta.insert(RankTuple(1, 0.5, 0.5), 0)
    with pytest.raises(MaintenanceError, match="already buffered"):
        delta.insert(RankTuple(1, 0.6, 0.6), 0)
    with pytest.raises(MaintenanceError, match="finite"):
        delta.insert(RankTuple(2, math.nan, 0.5), 0)
    with pytest.raises(MaintenanceError, match="replay op"):
        delta.replay("upsert", RankTuple(3, 0.1, 0.1))


def test_supports_wal_is_duck_typed():
    class Double:
        def append_insert(self, tid, s1, s2):
            return 1

        def append_delete(self, tid):
            return 2

        def commit(self):
            return 2

        @property
        def last_lsn(self):
            return 2

    assert isinstance(Double(), SupportsWal)
    assert not isinstance(object(), SupportsWal)
