"""Algorithm ConstructRJI as the paper states it (Section 6, Figure 6).

Every pair of ``D_K`` yields its *separating point* — the sweep angle at
which the two tuples exchange relative order (Lemma 4) — the points are
sorted, and one event at a time the sweep keeps the running top-K set
``Q``, materializing a region whenever ``Q`` changes.  That is
``O(|D_K|^2)`` work whatever the output; the production build
(:func:`repro.core.sweep.sweep_regions`) computes only the events its
regions depend on and must return exactly these regions, float for
float.  This module is its test oracle and the all-pairs ``tSep`` column
of Figure 14.

Same-angle events are grouped (a group extends while angles stay within
``angle_tol`` of its first event) and each group with a *relevant* event
— exactly one endpoint in ``Q``; for the ordered variant at least one —
is resolved at once: ``Q`` becomes the exact top-K of ``Q`` and the
relevant events' endpoints, ranked at the midpoint between the group and
the next event (docs/ALGORITHMS.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.geometry import HALF_PI
from ..core.sweep import Region, _initial_topk_positions, _topk_positions_at
from ..core.tuples import RankTupleSet

__all__ = ["SeparatingEvents", "construct_rji", "separating_events"]

#: Rows per block of the all-pairs pass (peak temporaries ``O(512 * n)``).
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class SeparatingEvents:
    """All separating events of a tuple set, sorted by angle.

    ``angles[m]`` is the separating point of the pair at array positions
    ``(first[m], second[m])`` of the originating :class:`RankTupleSet`.
    ``pairs_considered`` is the total number of pairs examined, including
    those that produced no event.
    """

    angles: np.ndarray
    first: np.ndarray
    second: np.ndarray
    pairs_considered: int

    def __len__(self) -> int:
        return len(self.angles)


def _block_events(
    x: np.ndarray, y: np.ndarray, n: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Separating events of rows ``[start, stop)`` against all columns."""
    rows = np.arange(start, stop)
    # Pairwise differences of rows [start, stop) against all columns;
    # only the strict upper triangle (j > i) is kept.
    dx = x[rows, None] - x[None, :]
    dy = y[rows, None] - y[None, :]
    upper = np.arange(n)[None, :] > rows[:, None]
    # A separating point exists iff dx and dy have strictly opposite
    # signs; then tan(angle) = -dx/dy is positive.
    crossing = upper & ((dx > 0) != (dy > 0)) & (dx != 0) & (dy != 0)
    if not crossing.any():
        return None
    row_idx, col_idx = np.nonzero(crossing)
    ratio = -dx[row_idx, col_idx] / dy[row_idx, col_idx]
    return (
        np.arctan(ratio),
        rows[row_idx].astype(np.int64),
        col_idx.astype(np.int64),
    )


def separating_events(tuples: RankTupleSet) -> SeparatingEvents:
    """Compute every pairwise separating point of ``tuples``.

    The pass runs in row blocks of ``_BLOCK_ROWS``, so besides the output
    (worst case one event per pair, ``n*(n-1)/2`` — reached when no tuple
    dominates another, the regime ``D_K`` lives in) it allocates
    ``O(_BLOCK_ROWS * n)``.  The final sort is a total order over
    ``(angle, first, second)``, so the result does not depend on the
    block partition.
    """
    n = len(tuples)
    empty = np.empty(0)
    pairs_considered = n * (n - 1) // 2
    blocks = [
        _block_events(tuples.s1, tuples.s2, n, start, min(start + _BLOCK_ROWS, n - 1))
        for start in range(0, n - 1, _BLOCK_ROWS)
    ]
    produced = [block for block in blocks if block is not None]
    if not produced:
        none = empty.astype(np.int64)
        return SeparatingEvents(empty, none, none, pairs_considered)
    angles = np.concatenate([block[0] for block in produced])
    first = np.concatenate([block[1] for block in produced])
    second = np.concatenate([block[2] for block in produced])
    order = np.lexsort((second, first, angles))
    return SeparatingEvents(
        angles[order], first[order], second[order], pairs_considered
    )


def construct_rji(
    tuples: RankTupleSet,
    k: int,
    *,
    record_order: bool = False,
    angle_tol: float = 1e-12,
) -> list[Region]:
    """The regions of ``tuples`` for bound ``k``, one event at a time.

    With ``record_order=True`` every change of ordering inside the top-K
    is materialized too (Section 6.2).  ``angle_tol`` is the width of a
    tie group; the production sweep fixes it at the default.
    """
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
            # Rounding artefacts of extreme ratios: the swap happens at
            # the sweep's end and affects no interior interval.
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
            new_queue = _topk_positions_at(tuples, candidates, midpoint, k_eff)
            changed = (
                new_queue != queue
                if record_order
                else set(new_queue) != queue_set
            )
            if changed:
                if group_angle > lo:
                    regions.append(
                        Region(lo, group_angle, tuple(int(tids[p]) for p in queue))
                    )
                    lo = group_angle
                # A group angle rounding onto the previous boundary
                # replaces the composition of an empty interval.
                queue = new_queue
                queue_set = set(new_queue)
        i = j
    regions.append(Region(lo, HALF_PI, tuple(int(tids[p]) for p in queue)))
    return regions
