"""The angular sweep of Algorithm ConstructRJI (Section 6, Figure 6).

A vector ``e`` sweeps the positive quadrant from the s1-axis (angle 0)
to the s2-axis (angle pi/2).  The sweep tracks the composition of the
running top-K set ``Q``; every separating vector whose crossing changes
``Q`` is *materialized* together with the new composition, partitioning
the quadrant into angular regions ``R_0 .. R_l`` such that any scoring
function whose angle falls inside region ``R_i`` draws its top-k answer
(k <= K) from the region's K tuples.

Exactness under ties
--------------------
Processing same-angle events pairwise in arbitrary order is not sound
when three or more tuples are co-linear (they share one separating
vector, Lemma 5) or when unrelated crossings coincide.  The sweep
therefore *groups* events at equal angles and resolves each group in one
step: the only tuples whose membership can change at the group angle are
the endpoints of group events with exactly one endpoint currently in
``Q`` (an entrant must swap with the tuple holding position K, which is
a member — Lemma 4(b)(iii)).  The new composition is the exact top-K of
``Q`` united with those endpoints, ranked at the angular midpoint of the
following region, which is interior to it and hence tie-free for
distinct rank pairs.

Vectorized scan
---------------
Most events are irrelevant — neither endpoint is near the running top-K
— so the sweep never walks them one by one.  Tie-group boundaries are
precomputed from the sorted angle array (``np.diff`` finds every gap
wider than the tolerance, which is provably a group boundary under the
seed's group-start-relative comparison; only runs of narrow gaps need
the exact scalar walk).  The event stream is then scanned in
group-aligned chunks: one boolean gather against the membership array
classifies every event in the chunk, and only groups containing a
relevant event are resolved — with the same candidate sets, midpoints
and comparisons as the scalar loop, so the output regions are
bit-identical.  A membership change invalidates the remainder of the
chunk's classification, so the scan resumes from the end of the
changed group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConstructionError
from ..obs import NULL_RECORDER, Recorder
from .events import separating_events
from .geometry import HALF_PI
from .tuples import RankTupleSet

__all__ = ["Region", "SweepStats", "sweep_regions"]

#: Chunk-size bounds for the event scan.  A composition change forces a
#: rescan of the remaining chunk, so the chunk starts small and doubles
#: only while no change occurs: dense-change stretches pay for short
#: gathers, long irrelevant tails amortize to the maximum.
_CHUNK_MIN_EVENTS = 256
_CHUNK_MAX_EVENTS = 16384


@dataclass(frozen=True)
class Region:
    """One angular region of the index.

    Covers sweep angles in ``[lo, hi)`` (the final region includes
    ``pi/2``).  ``tids`` is the top-K composition; for an order-recording
    sweep it is additionally sorted by decreasing score throughout the
    region's interior.
    """

    lo: float
    hi: float
    tids: tuple[int, ...]

    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SweepStats:
    """Work counters of one sweep, for construction-cost reporting."""

    n_input: int
    pairs_considered: int
    n_events: int
    n_groups_resolved: int
    n_regions: int

    @property
    def n_separating(self) -> int:
        """Number of materialized separating points (the paper's |Sep|)."""
        return max(self.n_regions - 1, 0)


def _initial_topk_positions(tuples: RankTupleSet, k: int) -> list[int]:
    """Positions of the top-k at angle 0+ (s1 desc, then s2 desc, tid asc)."""
    order = np.lexsort((tuples.tids, -tuples.s2, -tuples.s1))
    return [int(p) for p in order[:k]]


def _topk_positions_at(
    tuples: RankTupleSet, candidates: list[int], angle: float, k: int
) -> list[int]:
    """Exact top-k among candidate positions, scored at ``angle``."""
    cand = np.asarray(candidates, dtype=np.int64)
    p1 = math.cos(angle)
    p2 = math.sin(angle)
    scores = p1 * tuples.s1[cand] + p2 * tuples.s2[cand]
    order = np.lexsort((tuples.tids[cand], -tuples.s1[cand], -scores))
    return [int(cand[p]) for p in order[:k]]


def _group_bounds(angles: np.ndarray, angle_tol: float) -> np.ndarray:
    """Tie-group boundaries of a sorted angle array.

    Returns the ascending array ``[start_0, start_1, ..., n]`` such that
    group ``g`` is ``angles[bounds[g]:bounds[g + 1]]``, using exactly
    the scalar sweep's rule: a group starting at ``s`` extends while
    ``angles[j] - angles[s] <= angle_tol``.

    Any position whose gap to its predecessor exceeds the tolerance is
    a *definite* group start: for ``s < p``, ``angles[s] <= angles[p-1]``
    and float subtraction is monotone in its subtrahend, so
    ``angles[p] - angles[s] >= angles[p] - angles[p-1] > tol`` in
    float64 too.  Only runs of narrow consecutive gaps can merge or
    split on the group-start-relative comparison, so the exact scalar
    walk is confined to those runs.
    """
    n = int(len(angles))
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    definite = np.nonzero(np.diff(angles) > angle_tol)[0] + 1
    if definite.size == n - 1:
        # Every gap exceeds the tolerance: one event per group.
        return np.arange(n + 1, dtype=np.int64)
    run_edges = np.concatenate(
        (
            np.zeros(1, dtype=np.int64),
            definite,
            np.asarray([n], dtype=np.int64),
        )
    )
    multi = np.nonzero(np.diff(run_edges) > 1)[0]
    extra: list[int] = []
    for run in multi.tolist():
        a = int(run_edges[run])
        b = int(run_edges[run + 1])
        vals = angles[a:b].tolist()
        s = 0
        for j in range(1, b - a):
            if vals[j] - vals[s] > angle_tol:
                s = j
                extra.append(a + j)
    starts = run_edges[:-1]
    if extra:
        starts = np.sort(
            np.concatenate((starts, np.asarray(extra, dtype=np.int64)))
        )
    return np.concatenate((starts, np.asarray([n], dtype=np.int64)))


def sweep_regions(
    tuples: RankTupleSet,
    k: int,
    *,
    record_order: bool = False,
    angle_tol: float = 1e-12,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[list[Region], SweepStats]:
    """Run the ConstructRJI sweep over ``tuples`` for bound ``k``.

    ``tuples`` is normally the dominating set ``D_K``; the sweep is
    correct for any tuple set.  With ``record_order=True`` every change
    of *ordering* inside the top-K is materialized as well (the
    fast-query variant of Section 6.2), producing regions whose ``tids``
    are score-ordered so queries need no re-evaluation.  The events come
    from one all-pairs pass,
    :func:`repro.core.events.separating_events`.

    Returns the region list (covering ``[0, pi/2]`` without gaps) and
    the sweep's work counters.
    """
    if k < 1:
        raise ConstructionError(f"K must be a positive integer, got {k}")
    n = len(tuples)
    if n == 0:
        return [Region(0.0, HALF_PI, ())], SweepStats(0, 0, 0, 0, 1)

    k_eff = min(k, n)
    queue = _initial_topk_positions(tuples, k_eff)
    queue_set = set(queue)

    events = separating_events(tuples, recorder=recorder)
    angles = events.angles
    first = events.first
    second = events.second
    n_events = len(events)

    regions: list[Region] = []
    tids = tuples.tids
    lo = 0.0
    groups_resolved = 0

    bounds = _group_bounds(angles, angle_tol)
    starts = bounds[:-1]
    # Groups whose start angle reaches pi/2 are rounding artefacts of
    # extreme separating ratios: the swap happens at the sweep's end and
    # affects no interior interval.
    g_cut = int(np.searchsorted(angles[starts], HALF_PI, side="left"))
    e_cut = int(bounds[g_cut])

    in_queue = np.zeros(n, dtype=bool)
    in_queue[np.asarray(queue, dtype=np.int64)] = True
    chunk_scans = 0

    pos = 0
    chunk = _CHUNK_MIN_EVENTS
    while pos < e_cut:
        end = min(pos + chunk, e_cut)
        if end < e_cut:
            # Round up to a group boundary so no group straddles chunks.
            end = int(bounds[int(np.searchsorted(bounds, end, side="left"))])
        chunk_scans += 1
        a_in = in_queue[first[pos:end]]
        b_in = in_queue[second[pos:end]]
        rel = (a_in | b_in) if record_order else (a_in != b_in)
        rel_pos = np.nonzero(rel)[0].tolist()
        rescan = False
        ptr = 0
        while ptr < len(rel_pos):
            event = pos + rel_pos[ptr]
            g = int(np.searchsorted(bounds, event, side="right")) - 1
            g0 = int(bounds[g])
            g1 = int(bounds[g + 1])
            groups_resolved += 1
            rel_g = rel[g0 - pos : g1 - pos]
            involved = set(first[g0:g1][rel_g].tolist())
            involved.update(second[g0:g1][rel_g].tolist())
            group_angle = float(angles[g0])
            next_angle = float(angles[g1]) if g1 < n_events else HALF_PI
            midpoint = (group_angle + next_angle) / 2.0
            candidates = list(queue_set | involved)
            new_queue = _topk_positions_at(tuples, candidates, midpoint, k_eff)
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
                # When the group angle rounds onto the previous boundary
                # the displaced composition covered an empty interval and
                # is simply replaced.
                in_queue[np.asarray(queue, dtype=np.int64)] = False
                queue = new_queue
                queue_set = set(new_queue)
                in_queue[np.asarray(queue, dtype=np.int64)] = True
                # Membership changed, so the chunk's classification is
                # stale for everything after this group: rescan from its
                # end.  (Groups already handled above saw the membership
                # they would have seen in the scalar sweep.)
                pos = g1
                rescan = True
                break
            # Composition unchanged: the classification is still valid,
            # so just skip forward to the next relevant event past this
            # group.
            cut = g1 - pos
            while ptr < len(rel_pos) and rel_pos[ptr] < cut:
                ptr += 1
        if rescan:
            chunk = _CHUNK_MIN_EVENTS
        else:
            pos = end
            chunk = min(chunk * 2, _CHUNK_MAX_EVENTS)

    regions.append(Region(lo, HALF_PI, tuple(int(tids[p]) for p in queue)))
    if recorder.enabled:
        recorder.count("sweep.tie_groups", groups_resolved)
        recorder.count("sweep.regions", len(regions))
        recorder.count("sweep.groups", max(len(bounds) - 1, 0))
        recorder.count("sweep.chunk_scans", chunk_scans)
    stats = SweepStats(
        n_input=n,
        pairs_considered=events.pairs_considered,
        n_events=n_events,
        n_groups_resolved=groups_resolved,
        n_regions=len(regions),
    )
    return regions, stats
