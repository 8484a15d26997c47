"""The vectorized hot paths are bit-identical to the scalar originals.

The columnar store, the chunked sweep scan, and the blocked event pass
are pure performance work — every output must match the straightforward
scalar implementations they replaced *exactly* (same floats, same tie
resolution, same region boundaries).  The reference implementations
below are kept deliberately naive: a per-event scalar sweep loop and a
per-tuple dict-lookup query, mirroring the original code.
"""

import math

import numpy as np
import pytest

from repro.core import events as events_module
from repro.core.events import separating_events
from repro.core.geometry import HALF_PI
from repro.core.index import QueryResult, RankedJoinIndex
from repro.core.scoring import as_preference
from repro.core.sweep import (
    Region,
    _initial_topk_positions,
    _topk_positions_at,
    sweep_regions,
)
from repro.core.tuples import RankTupleSet

# -- reference implementations (the replaced scalar code) -----------------


def reference_sweep(tuples, k, *, record_order=False, angle_tol=1e-12):
    """The original event-at-a-time sweep loop."""
    n = len(tuples)
    if n == 0:
        return [Region(0.0, HALF_PI, ())]
    k_eff = min(k, n)
    queue = _initial_topk_positions(tuples, k_eff)
    queue_set = set(queue)
    events = separating_events(tuples)
    angles, first, second = events.angles, events.first, events.second
    n_events = len(events)
    regions = []
    tids = tuples.tids
    lo = 0.0
    i = 0
    while i < n_events:
        group_angle = float(angles[i])
        if group_angle >= HALF_PI:
            break
        involved = set()
        j = i
        while j < n_events and angles[j] - group_angle <= angle_tol:
            a, b = int(first[j]), int(second[j])
            a_in, b_in = a in queue_set, b in queue_set
            relevant = (a_in or b_in) if record_order else (a_in != b_in)
            if relevant:
                involved.add(a)
                involved.add(b)
            j += 1
        if involved:
            next_angle = float(angles[j]) if j < n_events else HALF_PI
            midpoint = (group_angle + next_angle) / 2.0
            candidates = list(queue_set | involved)
            new_queue = _topk_positions_at(
                tuples, candidates, midpoint, k_eff
            )
            changed = (
                new_queue != queue
                if record_order
                else set(new_queue) != queue_set
            )
            if changed:
                if group_angle > lo:
                    regions.append(
                        Region(
                            lo,
                            group_angle,
                            tuple(int(tids[p]) for p in queue),
                        )
                    )
                    lo = group_angle
                queue = new_queue
                queue_set = set(new_queue)
        i = j
    regions.append(Region(lo, HALF_PI, tuple(int(tids[p]) for p in queue)))
    return regions


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
    rng = np.random.default_rng(hash((kind, record_order)) % 2**32)
    for _ in range(6):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, 20))
        tuples = _workload(kind, n, rng)
        expected = reference_sweep(tuples, k, record_order=record_order)
        actual, _ = sweep_regions(tuples, k, record_order=record_order)
        assert _as_fields(actual) == _as_fields(expected)


def test_sweep_respects_angle_tol():
    rng = np.random.default_rng(5)
    tuples = _workload("grid", 120, rng)
    for tol in (0.0, 1e-12, 1e-6, 1e-2):
        expected = reference_sweep(tuples, 6, angle_tol=tol)
        actual, _ = sweep_regions(tuples, 6, angle_tol=tol)
        assert _as_fields(actual) == _as_fields(expected)


# -- query equivalence -----------------------------------------------------


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("variant", ["standard", "ordered"])
def test_query_bit_identical_to_reference(kind, variant):
    rng = np.random.default_rng(hash((kind, variant)) % 2**32)
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
    rng = np.random.default_rng(17)
    tuples = _workload("anticorrelated", 400, rng)
    for variant in ("standard", "ordered"):
        index = RankedJoinIndex.build(tuples, 10, variant=variant)
        prefs = [
            (math.cos(a), math.sin(a))
            for a in rng.uniform(0.0, math.pi / 2, 80)
        ]
        batch = index.query_batch(prefs, 5)
        assert batch == [index.query(p, 5) for p in prefs]


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
