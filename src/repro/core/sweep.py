"""The angular sweep of Algorithm ConstructRJI (Section 6, Figure 6),
run as a walk along the K-level of the dual line arrangement.

A vector sweeps the quadrant from angle 0 (score s1) to pi/2 (score s2),
tracking the running top-K set ``Q``; every crossing that changes ``Q``
ends a region.  The regions are those of the paper's all-pairs sweep
(:mod:`repro.experiments.construct_rji`) float for float, but only the
events they depend on are visited (docs/ALGORITHMS.md §4): a member and
an outsider cross only at ranks K and K+1, so the walk follows the K-th
member along memoised crossings to its next crossing with an outsider
(the ordered variant also to the next crossing of two members).  An
event nothing else crosses close to is resolved on the spot
(:meth:`_Walk._alone`), any other in a window holding every event of a
stretch of angles (:meth:`_Arrangement.events`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConstructionError
from ..obs import NULL_RECORDER, Recorder
from .geometry import HALF_PI
from .tuples import RankTupleSet

__all__ = ["Region", "SweepStats", "sweep_regions"]

#: Width of a tie group, measured from its first event.
_ANGLE_TOL = 1e-12
#: A hand-over this close to another crossing of its tuples stops the walk.
_NEAR = 64 * _ANGLE_TOL
#: A stop with no other crossing this close is resolved without a window.
_LONE = 1e-9
#: Expected events per window: doubles while stops come thick (closer
#: than ``_WINDOW_JOIN``, smoothed), else back to the minimum.  An input
#: with at most ``_WINDOW_MAX`` pairs is one window.
_WINDOW_MIN, _WINDOW_MAX, _WINDOW_JOIN = 8, 16384, 64
#: Events a window scan classifies at once after a membership change.
_SCAN_CHUNK = 256


@dataclass(frozen=True)
class Region:
    """One angular region: sweep angles ``[lo, hi)`` (the last region
    includes ``pi/2``) and their top-K ``tids`` — score-ordered
    throughout the interior for an order-recording sweep."""

    lo: float
    hi: float
    tids: tuple[int, ...]

    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SweepStats:
    """Work counters of one sweep: ``n_events`` counts walk steps (events
    looked at) and ``pairs_considered`` the separating angles computed."""

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
    return np.lexsort((tuples.tids, -tuples.s2, -tuples.s1))[:k].tolist()


def _topk_positions_at(
    tuples: RankTupleSet, candidates: list[int], angle: float, k: int
) -> list[int]:
    """Exact top-k among candidate positions, scored at ``angle``."""
    cand = np.asarray(candidates, dtype=np.int64)
    scores = math.cos(angle) * tuples.s1[cand] + math.sin(angle) * tuples.s2[cand]
    order = np.lexsort((tuples.tids[cand], -tuples.s1[cand], -scores))
    return cand[order[:k]].tolist()


def _tied_pairs(scores: np.ndarray, order: np.ndarray, tie: float) -> np.ndarray:
    """Every pair (as two rows) of ``order``'s entries linked by a chain
    of neighbours whose ascending ``scores`` lie within ``tie``."""
    near = np.flatnonzero(scores[1:] - scores[:-1] <= tie)
    pairs = [np.empty((2, 0), dtype=np.int64)]
    for chain in np.split(near, np.flatnonzero(np.diff(near) != 1) + 1):
        if chain.size:
            pairs.append(order[chain[0] + np.array(np.triu_indices(chain.size + 1, 1))])
    return np.concatenate(pairs, axis=1)


class _Arrangement:
    """The separating events of a tuple set, computed where asked for."""

    def __init__(self, tuples: RankTupleSet):
        self.x, self.y, self.n = tuples.s1, tuples.s2, len(tuples)
        self.z = self.x + 1j * self.y  # |z[p] - z[q]| is the distance
        self._positions = np.arange(self.n)
        # Computed scores closer than this may be ordered wrongly.
        self.tie = 2.0**-48 * float(np.max(np.abs(self.x) + np.abs(self.y)))
        self.diam = math.hypot(float(np.ptp(self.x)), float(np.ptp(self.y)))
        self._crossings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.pairs = 0

    def angles(self, p: np.ndarray, q: np.ndarray):
        """Separating angles of the crossing pairs among ``(p[i], q[i])``;
        ``-dx/dy`` is the same float for either orientation of a pair."""
        self.pairs += len(p)
        dx, dy = self.x[p] - self.x[q], self.y[p] - self.y[q]
        cross = ((dx > 0) != (dy > 0)) & (dx != 0) & (dy != 0)
        return np.arctan(-dx[cross] / dy[cross]), p[cross], q[cross]

    def crossings(self, p: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """Ascending angles of the crossings of ``p`` from ``floor`` on
        (the first call's ``floor`` holds for later ones), and partners."""
        if p not in self._crossings:
            angles, _, partners = self.angles(np.full(self.n, p), self._positions)
            ahead = np.flatnonzero(angles >= floor)
            # Equal angles stop the walk whichever partner comes first.
            order = ahead[np.argsort(angles[ahead])]
            self._crossings[p] = (angles[order], partners[order])
        return self._crossings[p]

    def sort_at(self, angle: float) -> tuple[np.ndarray, np.ndarray]:
        """Ascending scores at ``angle`` and the positions in that order
        (stable, so tied scores keep one order on every platform)."""
        scores = math.cos(angle) * self.x + math.sin(angle) * self.y
        order = np.argsort(scores, kind="stable")
        return scores[order], order

    def events(self, lo: float, hi: float):
        """Every separating event with angle in ``(lo, hi]``, by angle.

        A pair crosses in the window iff the score orders at ``lo`` and
        ``hi`` disagree on it (two lines cross once).  Rounding misorders
        only scores within ``tie``, so tied chains are taken whole; other
        places ``i < j`` swapped between the two orders are at most
        ``shift[i] + shift[j]`` apart.
        """
        n = self.n
        sides = self.sort_at(lo), self.sort_at(hi)
        (_, at_lo), (_, at_hi) = sides
        rank = np.argsort(at_hi)[at_lo]  # each lo place's place at hi
        shift = np.abs(rank - self._positions)
        moved = np.flatnonzero(shift)
        reach = 2 * shift[moved]
        if 2 * reach.sum() >= n * (n - 1) // 2:
            p, q = np.triu_indices(n, 1)  # looking costs more than all pairs
        else:
            # Each moved place looks twice its own shift either way.
            width = 2 * reach
            i = np.repeat(moved, width)
            step = np.arange(len(i)) - np.repeat(np.cumsum(width) - reach, width)
            j = i + step + (step >= 0)
            inside = (j >= 0) & (j < n)
            a, b = np.minimum(i, j)[inside], np.maximum(i, j)[inside]
            swapped = at_lo[np.array([a, b])[:, rank[a] > rank[b]]]
            tied = [_tied_pairs(*side, self.tie) for side in sides]
            p, q = np.concatenate([swapped, *tied], axis=1)
            # Both places of a pair may find it: keep one of each.
            key = np.unique(np.minimum(p, q) * n + np.maximum(p, q))
            p, q = key // n, key % n
        angles, first, second = self.angles(p, q)
        keep = np.flatnonzero((angles > lo) & (angles <= hi))
        keep = keep[np.argsort(angles[keep], kind="stable")]
        return angles[keep], first[keep], second[keep]


class _Walk:
    """One sweep: the walk state, its windows and the output."""

    def __init__(self, tuples: RankTupleSet, k: int, record_order: bool):
        self.tuples, self.k, self.record_order = tuples, k, record_order
        self.arr = _Arrangement(tuples)
        self.queue = _initial_topk_positions(tuples, k)
        self.in_q = np.zeros(len(tuples), dtype=bool)
        self.in_q[self.queue] = True
        self.tid_of = tuples.tids.tolist()
        self.regions: list[Region] = []
        # Every event at or below ``done`` is handled and none lies in
        # ``(done, gap_hi)``; ``ranked`` is the members' score order
        # there when known (at angle 0+ it is the initial order).
        self.lo, self.done, self.gap_hi = 0.0, -_NEAR, 0.0
        self.ranked: list[int] | None = list(self.queue)
        self.density = max(len(tuples) * (len(tuples) - 1) / 2, 1) / HALF_PI
        self.window, self.steps, self.groups_resolved = _WINDOW_MIN, 0, 0

    def run(self) -> list[Region]:
        n = len(self.tuples)
        if n * (n - 1) // 2 <= _WINDOW_MAX:
            self._window(0.0, self.done, HALF_PI)
        else:
            # Expected events between stops, smoothed: where stops come
            # thick, scanning windows beats resolving stops one by one.
            spacing = 2.0 * _WINDOW_JOIN
            while (stop := self._next_stop()) is not None:
                angle = stop[0]
                spacing = (spacing + (angle - self.done) * self.density) / 2
                if spacing <= _WINDOW_JOIN:
                    self.window, lo = min(2 * self.window, _WINDOW_MAX), self.done
                else:
                    self.window, lo = _WINDOW_MIN, angle - _NEAR
                    if self._alone(*stop):
                        continue
                if self._window(angle, lo, angle + self.window / self.density):
                    break
        self.regions.append(Region(self.lo, HALF_PI, self._tids(self.queue)))
        return self.regions

    def _tids(self, positions: list[int]) -> tuple[int, ...]:
        return tuple(map(self.tid_of.__getitem__, positions))

    def _adopt(self, angle: float, new_queue: list[int], outs: list[int]) -> bool:
        """Take the composition a group at ``angle`` resolved to; True
        when one of the outsiders ``outs`` entered."""
        entered = [p for p in outs if p in new_queue]
        if not entered and (not self.record_order or new_queue == self.queue):
            return False
        # A group angle rounding onto the previous boundary replaces the
        # composition of an empty interval.
        if angle > self.lo:
            self.regions.append(Region(self.lo, angle, self._tids(self.queue)))
            self.lo = angle
        if entered:
            self.in_q[list(set(self.queue).difference(new_queue))] = False
            self.in_q[entered] = True
        self.queue = new_queue
        return bool(entered)

    def _involved(self, pairs) -> tuple[set[int], list[int]]:
        """Endpoints of the relevant events among ``pairs``, and those of
        them outside ``Q``."""
        in_q, either = self.in_q, self.record_order
        involved = {
            t
            for a, b in pairs
            if ((in_q[a] or in_q[b]) if either else in_q[a] != in_q[b])
            for t in (a, b)
        }
        return involved, [t for t in involved if not in_q[t]]

    # -- the walk ----------------------------------------------------------

    def _next_crossing(self, t: int, after: float) -> tuple[float, int, int]:
        angles, partners = self.arr.crossings(t, self.done - 2 * _NEAR)
        j = int(np.searchsorted(angles, after, side="right"))
        if j == len(angles):
            return math.inf, t, -1
        return float(angles[j]), t, int(partners[j])

    def _crowded(self, angle: float, p: int, q: int) -> bool:
        """Whether ``p`` or ``q`` crosses a third tuple within ``_NEAR``."""
        for t in (p, q):
            row = self.arr.crossings(t, self.done - 2 * _NEAR)[0]
            lo, hi = np.searchsorted(row, (angle - _NEAR, angle + _NEAR))
            if hi - lo > 1:
                return True
        return False

    def _next_stop(self) -> tuple[float, int, int] | None:
        """The next crossing ``(angle, p, q)`` that may be relevant."""
        if self.ranked is not None:
            kth = [self.ranked[-1]]
        else:  # rank K just above ``done``: every member tying for it
            c, members = (self.done + self.gap_hi) / 2.0, np.asarray(self.queue)
            at = math.cos(c) * self.arr.x[members] + math.sin(c) * self.arr.y[members]
            kth = members[at <= at.min() + self.arr.tie].tolist()
        stops = [self._next_crossing(t, self.done) for t in kth]
        if self.record_order and self.k > 1:
            pairs = np.asarray(self.queue)[np.array(np.triu_indices(self.k, 1))]
            swaps, p, q = self.arr.angles(*pairs)
            later = np.flatnonzero(swaps > self.done)
            if later.size:
                m = later[np.argmin(swaps[later])]
                stops.append((float(swaps[m]), int(p[m]), int(q[m])))
        stop = min(stops)
        if not self.record_order and len(kth) == 1:
            # Hand rank K on along crossings with members.
            while stop[2] >= 0 and self.in_q[stop[2]] and not self._crowded(*stop):
                self.steps += 1
                stop = self._next_crossing(stop[2], stop[0])
        return None if math.isinf(stop[0]) else stop

    def _alone(self, angle: float, p: int, q: int) -> bool:
        """Resolve the stop where ``p`` and ``q`` cross without a window
        when the events within ``_LONE`` of it (pairs then scoring within
        ``diam * _LONE``) form one tie group; else do nothing and return
        False.  The next event lies beyond ``angle + _LONE``, so the
        reference's midpoint, like ``_LONE/2`` past the group, is
        ``_LONE/3`` from every crossing: neighbours further apart than
        ``tie / sin(_LONE/3)`` rank the same at both."""
        arr = self.arr
        if angle + _LONE >= HALF_PI:
            return False
        close = arr.diam * _LONE + arr.tie
        scores = np.sort(math.cos(angle) * arr.x + math.sin(angle) * arr.y)
        if np.count_nonzero(scores[1:] - scores[:-1] <= close) == 1:
            lo = hi = angle
            pairs = [(p, q)]
        else:
            ang, first, second = arr.angles(*_tied_pairs(*arr.sort_at(angle), close))
            near = np.abs(ang - angle) <= _LONE
            lo, hi = float(ang[near].min()), float(ang[near].max())
            if hi - lo > _ANGLE_TOL:
                return False
            pairs = list(zip(first[near].tolist(), second[near].tolist()))
        involved, outs = self._involved(pairs)
        cand, mid = np.asarray(self.queue + outs), hi + _LONE / 2
        at = math.cos(mid) * arr.x[cand] + math.sin(mid) * arr.y[cand]
        ranked = cand[np.argsort(-at)]
        # Tied or barely apart neighbours (identical rank pairs included,
        # which the reference orders by tid) are left to a window.
        if np.any(np.abs(np.diff(arr.z[ranked])) <= arr.tie / math.sin(_LONE / 3)):
            return False
        self.ranked = ranked[: self.k].tolist()
        if involved:
            self.groups_resolved += 1
            self._adopt(lo, self.ranked, outs)
        self.steps += len(pairs)
        self.done, self.gap_hi = hi, angle + _LONE
        return True

    # -- windows -----------------------------------------------------------

    def _window(self, angle: float, lo: float, hi: float) -> bool:
        """Resolve every relevant group of a window from ``lo`` past
        ``angle``; True once the sweep has reached pi/2."""
        arr, hi = self.arr, min(hi, HALF_PI)
        events = arr.events(lo, hi)
        ang = events[0]
        if lo > self.done and ang[0] - lo <= 2 * _ANGLE_TOL:
            return self._window(angle, self.done, hi)  # a run reaches below
        runs = np.flatnonzero(np.diff(ang) > _ANGLE_TOL) + 1
        last = int(runs[-1]) if runs.size else 0
        if hi < HALF_PI and int(np.searchsorted(ang, angle)) >= last:
            # The run holding ``angle`` must be followed by a known event.
            return self._window(angle, lo, 2 * hi - lo)
        self.density = max(len(ang), 1) / (hi - lo)
        end = len(ang) if hi >= HALF_PI else last
        if self._scan(*events, runs, end) or end == len(ang):
            return True
        self.done, self.gap_hi, self.ranked = float(ang[end - 1]), float(ang[end]), None
        return False

    def _scan(self, ang, first, second, runs, end) -> bool:
        """Resolve the relevant groups among ``ang[:end]``, classifying a
        chunk at a time; True when a group starts at pi/2 (the end)."""
        self.steps += end
        pos, chunk = 0, _SCAN_CHUNK
        while pos < end:
            stop = min(pos + chunk, end)
            a_in, b_in = self.in_q[first[pos:stop]], self.in_q[second[pos:stop]]
            rel = (a_in | b_in) if self.record_order else (a_in != b_in)
            resolved_to, chunk = pos, 2 * chunk
            for hit in (pos + np.flatnonzero(rel)).tolist():
                if hit < resolved_to:
                    continue
                g0, resolved_to = self._group_of(ang, runs, hit)
                if ang[g0] >= HALF_PI:
                    return True
                if self._resolve(ang, first, second, g0, resolved_to):
                    stop, chunk = resolved_to, _SCAN_CHUNK
                    break
            pos = max(stop, resolved_to)
        return False

    def _group_of(self, ang, runs, i: int) -> tuple[int, int]:
        """The tie group ``[g0, g1)`` of event ``i``, cut from its run."""
        r = int(np.searchsorted(runs, i, side="right"))
        start = int(runs[r - 1]) if r else 0
        vals = ang[start : int(runs[r]) if r < len(runs) else len(ang)].tolist()
        s = 0
        while True:
            e = s + 1
            while e < len(vals) and vals[e] - vals[s] <= _ANGLE_TOL:
                e += 1
            if start + e > i:
                return start + s, start + e
            s = e

    def _resolve(self, ang, first, second, g0: int, g1: int) -> bool:
        """Resolve tie group ``[g0, g1)``; True when membership changed."""
        _, outs = self._involved(zip(first[g0:g1].tolist(), second[g0:g1].tolist()))
        self.groups_resolved += 1
        angle = float(ang[g0])
        midpoint = (angle + (float(ang[g1]) if g1 < len(ang) else HALF_PI)) / 2.0
        new_queue = _topk_positions_at(self.tuples, self.queue + outs, midpoint, self.k)
        return self._adopt(angle, new_queue, outs)


def sweep_regions(
    tuples: RankTupleSet,
    k: int,
    *,
    record_order: bool = False,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[list[Region], SweepStats]:
    """Run the ConstructRJI sweep over ``tuples`` for bound ``k``.

    ``tuples`` is normally the dominating set ``D_K``; the sweep is
    correct for any tuple set.  With ``record_order=True`` every change
    of *ordering* inside the top-K is materialized as well (Section 6.2),
    so queries need no re-evaluation.  Returns the regions (tiling
    ``[0, pi/2]``) and the sweep's work counters.
    """
    if k < 1:
        raise ConstructionError(f"K must be a positive integer, got {k}")
    n = len(tuples)
    if n == 0:
        return [Region(0.0, HALF_PI, ())], SweepStats(0, 0, 0, 0, 1)
    walk = _Walk(tuples, min(k, n), record_order)
    if k >= n and not record_order:
        # Nobody is left outside the top-K: one region.
        regions = [Region(0.0, HALF_PI, walk._tids(walk.queue))]
    else:
        regions = walk.run()
    if recorder.enabled:
        recorder.count("sweep.pairs_considered", walk.arr.pairs)
        recorder.count("sweep.events", walk.steps)
        recorder.count("sweep.tie_groups", walk.groups_resolved)
        recorder.count("sweep.regions", len(regions))
    return regions, SweepStats(
        n, walk.arr.pairs, walk.steps, walk.groups_resolved, len(regions)
    )
