"""The production paths are bit-identical to the scalar references.

The K-level walk (:func:`repro.core.sweep.sweep_regions`) must return the
regions of the paper's all-pairs ConstructRJI
(:func:`repro.experiments.construct_rji.construct_rji`) exactly — same
floats, same tie resolution, same region boundaries, same ``tids``
order — and the columnar store must answer like a per-tuple dict-lookup
query over the same regions.  The reference implementations are kept
deliberately naive.
"""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fullscan import FullScanTopK
from repro.core import sweep as sweep_module
from repro.core.delta import DeltaStore
from repro.core.dominance import dominating_set
from repro.core.index import QueryResult, RankedJoinIndex
from repro.core.scoring import as_preference
from repro.core.sweep import sweep_regions
from repro.core.tuples import RankTuple, RankTupleSet
from repro.datagen.synthetic import correlated_pairs
from repro.experiments import construct_rji as events_module
from repro.experiments.construct_rji import construct_rji, separating_events
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.wal import WriteAheadLog

# -- reference implementations (the replaced scalar code) -----------------


def reference_query(index, preference, k):
    """The original per-tuple dict-lookup region evaluation."""
    preference = as_preference(preference)
    regions = index.regions
    boundaries = np.array([r.lo for r in regions[1:]])
    region = regions[int(np.searchsorted(boundaries, preference.angle,
                                         side="right"))]
    position_of = {
        int(tid): pos for pos, tid in enumerate(index.dominating.tids)
    }
    if index.variant == "ordered":
        out = []
        for tid in region.tids[:k]:
            pos = position_of[tid]
            score = (
                preference.p1 * index.dominating.s1[pos]
                + preference.p2 * index.dominating.s2[pos]
            )
            out.append(QueryResult(int(tid), float(score)))
        return out
    positions = np.array(
        [position_of[tid] for tid in region.tids], dtype=np.int64
    )
    if len(positions) == 0:
        return []
    s1 = index.dominating.s1[positions]
    s2 = index.dominating.s2[positions]
    scores = preference.p1 * s1 + preference.p2 * s2
    tids = index.dominating.tids[positions]
    order = np.lexsort((tids, -s1, -scores))[:k]
    return [QueryResult(int(tids[p]), float(scores[p])) for p in order]


# -- workloads -------------------------------------------------------------


def _workload(kind, n, rng):
    if kind == "uniform":
        s1, s2 = rng.random(n), rng.random(n)
    elif kind == "grid":
        # Integer grids force massive angle ties: many pairs share the
        # exact same separating vector, exercising group resolution.
        s1 = rng.integers(0, 8, n).astype(float)
        s2 = rng.integers(0, 8, n).astype(float)
    else:  # anticorrelated — large dominating sets, dense events
        s1 = rng.random(n)
        s2 = 1.0 - s1 + rng.normal(0.0, 0.05, n)
    return RankTupleSet(np.arange(n, dtype=np.int64), s1, s2)


WORKLOADS = ["uniform", "grid", "anticorrelated"]


def _as_fields(regions):
    return [(r.lo, r.hi, r.tids) for r in regions]


# -- sweep equivalence -----------------------------------------------------


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("record_order", [False, True])
def test_sweep_bit_identical_to_reference(kind, record_order):
    rng = np.random.default_rng(zlib.crc32(repr((kind, record_order)).encode()))
    for _ in range(6):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, 20))
        tuples = _workload(kind, n, rng)
        expected = construct_rji(tuples, k, record_order=record_order)
        actual, _ = sweep_regions(tuples, k, record_order=record_order)
        assert _as_fields(actual) == _as_fields(expected)


def test_sweep_respects_angle_tol():
    """The reference's ``angle_tol`` is the walk's fixed tie width: on an
    integer grid, where distinct separating angles lie far apart, any
    tolerance below that gap gives the walk's regions."""
    rng = np.random.default_rng(5)
    tuples = _workload("grid", 120, rng)
    actual, _ = sweep_regions(tuples, 6)
    for tol in (0.0, 1e-12, 1e-6):
        expected = construct_rji(tuples, 6, angle_tol=tol)
        assert _as_fields(actual) == _as_fields(expected)
    coarse = construct_rji(tuples, 6, angle_tol=1e-2)
    assert coarse[0].lo == 0.0 and coarse[-1].hi == actual[-1].hi


def _assert_walk_matches(tuples, k):
    """Both variants; an input with few pairs, which the sweep takes as
    one window, is also forced through the walk."""
    n = len(tuples)
    for record_order in (False, True):
        expected = _as_fields(construct_rji(tuples, k, record_order=record_order))
        actual, stats = sweep_regions(tuples, k, record_order=record_order)
        assert _as_fields(actual) == expected
        assert stats.n_regions == len(expected)
        if n * (n - 1) // 2 > sweep_module._WINDOW_MAX:
            continue
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "_WINDOW_MAX", sweep_module._WINDOW_MIN)
            walked, _ = sweep_regions(tuples, k, record_order=record_order)
        assert _as_fields(walked) == expected


@pytest.mark.parametrize("n, k, seed", [(1500, 20, 3), (4000, 40, 5), (800, 80, 9)])
def test_walk_matches_reference_on_grid_ranks(n, k, seed):
    # correlated_pairs puts both ranks on a 100/n grid: unrelated pairs
    # share slopes, so separating angles tie to the last few ulps.
    _assert_walk_matches(dominating_set(correlated_pairs(n, rho=-0.6, seed=seed), k), k)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_walk_matches_reference_on_tiny_inputs(n, k):
    rng = np.random.default_rng(100 * n + k)
    _assert_walk_matches(_workload("uniform", n, rng), k)


def test_walk_matches_reference_when_k_covers_everything():
    rng = np.random.default_rng(12)
    tuples = _workload("anticorrelated", 40, rng)
    for k in (40, 41, 100):
        _assert_walk_matches(tuples, k)


def _degenerate(rng, n):
    """Collinear runs, duplicate points and near-ties within 1e-12."""
    base = rng.integers(0, 6, (n, 2)).astype(float)
    line = np.arange(n // 4, dtype=float)
    s1 = np.concatenate((base[:, 0], 3.0 + line, 2.0 + 2 * line))
    s2 = np.concatenate((base[:, 1], 9.0 - line, 8.0 - line))
    near = rng.random(n) < 0.3
    s1[: n][near] += rng.choice([-1, 1], near.sum()) * 1e-13
    s1 = np.concatenate((s1, s1[:5]))  # duplicate rank pairs
    s2 = np.concatenate((s2, s2[:5]))
    return RankTupleSet(np.arange(len(s1), dtype=np.int64), s1, s2)


@pytest.mark.parametrize("seed", range(6))
def test_walk_matches_reference_on_degenerate_points(seed):
    rng = np.random.default_rng(seed)
    tuples = _degenerate(rng, 60)
    for k in (1, 3, 7):
        _assert_walk_matches(tuples, k)


#: Near ties placed by hand, each reaching a walk branch that random
#: inputs reach only now and then.  "spread": crossings 63.5e-12 apart,
#: a tie group wider than the tie width, so ``_alone`` leaves it to a
#: window, whose start lies just below the earlier crossing (the run
#: reaches below).  "near-half-pi": the first stop lies 5e-10 before
#: pi/2, where ``_alone`` does not look.  "chain": crossings 0.8e-12
#: apart, one run cut into two tie groups with the relevant crossing in
#: the second.
_NEAR_TIES = {
    "spread": [(1, 0), (0, 1), (0.5, 0), (0, 0.5 + 63.5e-12), (0.1, 0.1)],
    "near-half-pi": [(1, 0.5), (0, 0.5 + 5e-10), (0.2, 0.1), (0.1, 0.2), (0.15, 0.15)],
    "chain": [
        (1, 0), (0, 1), (0.5, 0), (0, 0.5 + 1.6e-12), (0.3, 0), (0, 0.3 + 4.8e-13)
    ],
}


@pytest.mark.parametrize("shape", sorted(_NEAR_TIES))
def test_walk_matches_reference_on_placed_near_ties(shape):
    points = np.array(_NEAR_TIES[shape])
    tuples = RankTupleSet(
        np.arange(len(points), dtype=np.int64), points[:, 0], points[:, 1]
    )
    for k in (1, 2):
        _assert_walk_matches(tuples, k)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
    st.integers(1, 6),
)
def test_walk_matches_reference_on_integer_grids(values, k):
    tuples = RankTupleSet(
        np.arange(len(values), dtype=np.int64),
        np.array([float(a) for a, _ in values]),
        np.array([float(b) for _, b in values]),
    )
    _assert_walk_matches(tuples, k)


@pytest.mark.parametrize("seed", [7, 1])
def test_walk_matches_reference_on_build_heavy_shape(seed):
    # The core-read benchmark shape: anticorrelated n = 20 000, K = 80.
    tuples = dominating_set(correlated_pairs(20000, rho=-0.6, seed=seed), 80)
    _assert_walk_matches(tuples, 80)


# -- query equivalence -----------------------------------------------------


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("variant", ["standard", "ordered"])
def test_query_bit_identical_to_reference(kind, variant):
    rng = np.random.default_rng(zlib.crc32(repr((kind, variant)).encode()))
    tuples = _workload(kind, 250, rng)
    index = RankedJoinIndex.build(tuples, 12, variant=variant)
    angles = np.concatenate(
        [
            rng.uniform(0.0, math.pi / 2, 60),
            # Exact region boundaries: the searchsorted tie direction
            # must agree between the scalar and vector lookups.
            np.array([r.lo for r in index.regions]),
        ]
    )
    for angle in angles:
        pref = (math.cos(angle), math.sin(angle))
        assert index.query(pref, 7) == reference_query(index, pref, 7)


def test_query_batch_matches_scalar_query():
    # Every index shape, with and without a write buffer, over the
    # awkward angles: both axes, every region's lower boundary, and
    # duplicates.  The batch must equal per-preference queries and the
    # reference: the dict-lookup query over the same regions, or the
    # full scan of the live tuples once a delta is merged (a merged view
    # sorts by score on every variant).
    rng = np.random.default_rng(17)
    tuples = _workload("anticorrelated", 400, rng)
    shapes = (dict(variant="standard"), dict(variant="ordered"), dict(merge_slack=2))
    for options in shapes:
        for with_delta in (False, True):
            index = RankedJoinIndex.build(tuples, 10, **options)
            drawn = rng.uniform(0.0, math.pi / 2, 40).tolist()
            angles = [0.0, math.pi / 2, *index.store.lo.tolist()]
            angles += drawn + drawn[:10] + angles
            if with_delta:
                scan = _with_charged_and_visible(index, tuples)
                expected = [scan.query(as_preference(a), 5) for a in angles]
            else:
                expected = [reference_query(index, a, 5) for a in angles]
            batch = index.query_batch(angles, 5)
            assert batch == [index.query(a, 5) for a in angles]
            assert batch == expected


def _with_charged_and_visible(index, tuples):
    """Attach a delta holding charged deletes and visible inserts to
    ``index``; return the full scan of the live tuples it describes."""
    live = {int(t.tid): t for t in tuples}
    delta = DeltaStore()
    index.attach_delta(delta)
    for angle in (0.3, 1.2):
        victim = index.query(angle, 1)[0].tid
        delta.delete(victim, 0)
        del live[victim]
    for tid, ranks in ((9000, (1.5, 0.2)), (9001, (0.4, 1.6))):
        live[tid] = RankTuple(tid, *ranks)
        delta.insert(live[tid], 0)
    view = delta.view()
    assert view.n_charged == 2 and view.n_visible == 2
    return FullScanTopK(RankTupleSet.from_tuples(sorted(live.values())))


# -- the in-region cut ------------------------------------------------------

#: Unit weights, the edges of the range the cut's margin covers, and
#: weights whose scores underflow or overflow (the whole region is
#: scored there).
_MAGNITUDES = (1.0, 2.0**-100, 2.0**100, 1e-300, 1e300)


def _region_bits(index, p1, p2, k):
    """Reference: every row of the query's region (with the attached
    delta merged), scored and sorted here, straight from the columns."""
    store = index.store
    rid = store.region_id(as_preference((p1, p2)).angle)
    start, stop = store.span(rid)
    rows = list(
        zip(
            store.tids[start:stop].tolist(),
            store.s1[start:stop].tolist(),
            store.s2[start:stop].tolist(),
        )
    )
    if index.delta is not None:
        view = index.delta.view()
        rows = [row for row in rows if row[0] not in view.charged]
        rows += [(tid, t.s1, t.s2) for tid, t in view.visible.items()]
    keys = sorted(((p1 * a + p2 * b, a, -tid) for tid, a, b in rows), reverse=True)
    return [(-neg_tid, struct.pack("<d", score)) for score, _, neg_tid in keys[:k]]


def _scored_rows(index, p1, p2, k):
    """How many rows a cut query scores: the region's rows whose reach
    is below ``k + n_charged``, less the charged ones, plus the visible
    inserts."""
    store = index.store
    rows, reach = store.rows(store.region_id(as_preference((p1, p2)).angle))
    view = index.delta.view() if index.delta is not None else None
    charged = view.charged if view is not None else frozenset()
    n = k + len(charged)
    kept = sum(1 for row, c in zip(rows, reach) if c < n and -row[2] not in charged)
    return kept + (view.n_visible if view is not None else 0)


def _assert_cut_exact(index, disks, magnitudes=_MAGNITUDES):
    """Every k, at each region's lo, the float below its hi and its
    midpoint, plus both axes: the answer equals the whole-region sort
    bit for bit and (for unit weights) scores exactly the rows whose
    reach allows them into the answer.  At each lo, the float below each
    hi and both axes, every disk twin answers the same bits and scores
    as many rows.  The ordered variant has no cut and answers in stored
    order: there only its disk twins are checked, against it."""
    store = index.store
    view = index.delta.view() if index.delta is not None else None
    max_k = index.k_bound - (view.n_charged if view is not None else 0)
    cut = index.variant != "ordered"
    # Regions tile the quadrant, so each region's hi is the next key
    # the disk tier's descent reports (and pi/2 past the last one).
    assert store.hi[:-1].tolist() == store.lo[1:].tolist()
    assert store.lo[0] == 0.0 and store.hi[-1] == math.pi / 2
    boundaries = [0.0, math.pi / 2, *store.lo.tolist()]
    angles = [(angle, disks) for angle in boundaries]
    for lo, hi in zip(store.lo.tolist(), store.hi.tolist()):
        angles.append((math.nextafter(hi, 0.0), disks))
        if cut:
            angles.append(((lo + hi) / 2, ()))
    evaluated = total = 0
    for angle, twins in angles:
        for magnitude in magnitudes:
            p1 = magnitude * math.cos(angle)
            p2 = magnitude * math.sin(angle)
            for k in range(1, max_k + 1):
                got = [
                    (r.tid, struct.pack("<d", r.score))
                    for r in index.query((p1, p2), k)
                ]
                if cut:
                    assert got == _region_bits(index, p1, p2, k), (angle, p1, p2, k)
                if not twins and not (cut and magnitude == 1.0):
                    continue
                explain = index.explain((p1, p2), k, record=False)
                for disk in twins:
                    assert [
                        (r.tid, struct.pack("<d", r.score))
                        for r in disk.query((p1, p2), k)
                    ] == got, (angle, p1, p2, k)
                    assert (
                        disk.last_query.tuples_evaluated
                        == explain.tuples_evaluated
                    ), (angle, p1, p2, k)
                if cut and magnitude == 1.0:
                    assert explain.tuples_evaluated == _scored_rows(
                        index, p1, p2, k
                    )
                    evaluated += explain.tuples_evaluated
                    total += explain.region_size
    return evaluated, total


def _attach_writes(index, tuples):
    """Charge the leaders at two angles and buffer visible inserts that
    duplicate the leaders at two others (exact ties with base rows).
    Returns the writes as WAL records for the disk twins."""
    delta = DeltaStore()
    index.attach_delta(delta)
    writes = []
    for angle in (0.3, 1.2):
        victim = index.query(angle, 1)[0].tid
        delta.delete(victim, 0)
        writes.append(("delete", RankTuple(victim, 0.0, 0.0)))
    position = {int(t): i for i, t in enumerate(tuples.tids.tolist())}
    fresh = int(tuples.tids.max()) + 1
    for offset, angle in enumerate((0.6, 1.0)):
        i = position[index.query(angle, 1)[0].tid]
        inserted = RankTuple(
            fresh + offset, float(tuples.s1[i]), float(tuples.s2[i])
        )
        delta.insert(inserted, 0)
        writes.append(("insert", inserted))
    view = delta.view()
    assert view.n_charged >= 1 and view.n_visible >= 1
    return writes


def _disk_twins(index, directory, writes):
    """``index`` saved, then reopened eager and mmap; ``writes`` (if
    any) appended to a WAL that the reopen replays."""
    directory.mkdir()
    image, wal_dir = directory / "index.rji", directory / "wal"
    DiskRankedJoinIndex(index).save(image)
    if not writes:
        return [DiskRankedJoinIndex.open(image, mmap=m) for m in (False, True)]
    wal = WriteAheadLog(wal_dir, fsync=False)
    for op, tuple_ in writes:
        if op == "insert":
            wal.append_insert(*tuple_)
        else:
            wal.append_delete(tuple_.tid)
    wal.commit()
    wal.close()
    disks = [
        DiskRankedJoinIndex.recover(image, wal_dir, mmap=m) for m in (False, True)
    ]
    view = index.delta.view()
    for disk in disks:  # the same write buffer, so the same cut bound
        assert disk.delta.charged == view.charged
        assert disk.delta.visible.keys() == view.visible.keys()
    return disks


def _assert_cut_exact_on_every_tier(index, tuples, directory, with_delta, **kw):
    writes = _attach_writes(index, tuples) if with_delta else []
    disks = _disk_twins(index, directory, writes)
    try:
        return _assert_cut_exact(index, disks, **kw)
    finally:
        disks[1].pager.close()


def _cut_corpus(kind, rng):
    if kind == "anticorrelated":
        return _workload("anticorrelated", 400, rng)
    if kind in ("huge", "tiny"):
        # Rank scales at the edges of the range the cut covers.
        scale = 2.0**897 if kind == "huge" else 2.0**-897
        tuples = _workload("anticorrelated", 300, rng)
        return RankTupleSet(tuples.tids, tuples.s1 * scale, tuples.s2 * scale)
    if kind == "subnormal":
        ranks = rng.integers(0, 40, (200, 2)) * 5e-324
    else:
        # Duplicate points and negative ranks; "big" overflows under
        # 1e300 weights (to inf, and to NaN across signs), "small"
        # underflows under 1e-300 weights.
        ranks = rng.integers(-4, 5, (200, 2)) * (3e9 if kind == "big" else 1e-20)
    return RankTupleSet(
        rng.permutation(len(ranks)).astype(np.int64), ranks[:, 0], ranks[:, 1]
    )


@pytest.mark.parametrize("with_delta", [False, True])
@pytest.mark.parametrize(
    "options",
    [{}, {"merge_slack": 2}, {"variant": "ordered"}],
    ids=["standard", "slack2", "ordered"],
)
@pytest.mark.parametrize(
    "kind", ["anticorrelated", "big", "small", "subnormal", "huge", "tiny"]
)
def test_cut_answers_equal_scoring_the_whole_region(
    tmp_path, kind, options, with_delta
):
    rng = np.random.default_rng(zlib.crc32(repr(kind).encode()))
    tuples = _cut_corpus(kind, rng)
    index = RankedJoinIndex.build(tuples, 10, **options)
    # Many small regions and no cut on the ordered variant: unit weights
    # and overflowing ones suffice there.
    evaluated, total = _assert_cut_exact_on_every_tier(
        index,
        tuples,
        tmp_path / "disk",
        with_delta,
        magnitudes=(1.0, 1e300) if "variant" in options else _MAGNITUDES,
    )
    if kind in ("anticorrelated", "huge", "tiny") and "variant" not in options:
        assert evaluated < 0.9 * total  # the cut bites
    if kind == "subnormal" and "variant" not in options:
        # No margin covers subnormal ranks: no cut.
        store = index.store
        assert not any(any(store.rows(r)[1]) for r in range(len(store)))


def test_cut_answers_equal_scoring_the_whole_region_on_integer_grids(tmp_path):
    # The 300 tied integer grids of the full-scan tie-order test; every
    # third grid is also built as the ordered variant.
    rng = np.random.default_rng(40)
    for round_ in range(300):
        ranks = rng.integers(0, 6, (40, 2)).astype(float)
        tuples = RankTupleSet(rng.permutation(40), ranks[:, 0], ranks[:, 1])
        index = RankedJoinIndex.build(
            tuples, 8, **({"merge_slack": 2} if round_ % 2 else {})
        )
        _assert_cut_exact_on_every_tier(
            index,
            tuples,
            tmp_path / str(round_),
            round_ % 3 == 0,
            magnitudes=(1.0, 1e300),
        )
        if round_ % 3 == 0:
            ordered = RankedJoinIndex.build(tuples, 8, variant="ordered")
            _assert_cut_exact_on_every_tier(
                ordered,
                tuples,
                tmp_path / f"{round_}-ordered",
                round_ % 6 == 0,
                magnitudes=(1.0, 1e300),
            )


# -- blocked event generation ---------------------------------------------


def test_block_rows_does_not_change_events(monkeypatch):
    rng = np.random.default_rng(31)
    tuples = _workload("grid", 200, rng)
    base = separating_events(tuples)
    for block_rows in (1, 3, 50, 10_000):
        monkeypatch.setattr(events_module, "_BLOCK_ROWS", block_rows)
        other = separating_events(tuples)
        np.testing.assert_array_equal(other.angles, base.angles)
        np.testing.assert_array_equal(other.first, base.first)
        np.testing.assert_array_equal(other.second, base.second)
